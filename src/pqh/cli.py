"""Command-line front end.

Exit codes: 0 success, 2 malformed input, 3 structural invariant violated
in the input, 4 internal cross-check violation.  All output is
deterministic for fixed (input, seed, flags).
"""

from __future__ import annotations

import argparse
import sys

from .classify import classify, generic_decompose, oracle_check
from .generate import KINDS, check_dim, generate
from .instances import (
    InstanceError,
    canonical_json,
    emit_instance,
    format_matrix,
    format_rational,
    graph_dict,
    load_instance,
    parse_structure_file,
    piece_dict,
    read_text,
    report_to_dict,
    subspace_dict,
)
from .model import ModelSpace, StructureError, standardize
from .rng import Rng
from .subspace import signature
from .uft import decompose_form1, decompose_form2, graph_form, to_uft


class CrossCheckError(RuntimeError):
    """Internal oracle disagreement (exit code 4)."""


def _fmt_sig(sig):
    return f"({sig.p},{sig.s},{sig.q})"


def _load(path):
    """The instance at path, with its warnings printed to stderr."""
    ms, u, h_basis, warnings = load_instance(path)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return ms, u, h_basis


# The largest n that ``gen`` and ``oracle`` accept, checked before any
# matrix of size n exists; far past it a run ends in a MemoryError.  ``gen``
# takes seconds at n = 32 (README, "Command line"), so a higher bound waits
# on a measurement of ``oracle --n``'s classify and oracle check.
MAX_N = 32


def _check_n(n):
    if not 1 <= n <= MAX_N:
        raise InstanceError(f"n must be an integer from 1 to {MAX_N}")


def _print_subspace(label, u, out):
    out.append(f"{label}: dim {u.dim}")
    for row in u.mat.rows:
        out.append("  [" + ", ".join(format_rational(x) for x in row) + "]")


def cmd_classify(args) -> int:
    ms, u, _h = _load(args.path)
    report = classify(ms, u)
    findings = oracle_check(ms, report, u, seed=0)
    bad = [f for f in findings if not f.ok]
    if bad:
        raise CrossCheckError("; ".join(f.name for f in bad))
    if args.json:
        sys.stdout.write(canonical_json(report_to_dict(report)))
        return 0
    out = [f"subspace of dimension {report.dim} in V = Q^{4 * report.n} (n = {report.n})"]
    out.append(f"signature: {_fmt_sig(report.signature)}")
    flags = report.flags.as_dict()
    true_flags = [k for k, v in flags.items() if v is True]
    out.append("flags: " + (", ".join(true_flags) if true_flags else "none"))
    if flags["nilpotent"]:
        out.append(f"nilpotent degree: {flags['nilpotent_degree']}")
    out.append(f"stabilizer dimension: {report.stab.dim}")
    for kind, op in (
        ("complex", report.witnesses.complex),
        ("para-complex", report.witnesses.para_complex),
        ("nilpotent", report.witnesses.nilpotent),
    ):
        if op is not None:
            out.append(
                f"witness ({kind}): alpha={format_rational(op.alpha)}"
                f" beta={format_rational(op.beta)} gamma={format_rational(op.gamma)}"
                f" q={format_rational(op.q())}"
            )
    _print_subspace("maximal para-quaternionic part", report.u0, out)
    if report.uft is not None:
        out.append(
            "graph presentation: dim F = "
            f"{report.uft.f_space.dim} over basis {format_matrix(report.uft.h_basis.mat)}"
        )
    print("\n".join(out))
    return 0


def cmd_signature(args) -> int:
    ms, u, _h = _load(args.path)
    sig = signature(ms, u)
    if args.json:
        sys.stdout.write(canonical_json({"signature": list(sig.as_tuple())}))
    else:
        print(_fmt_sig(sig))
    return 0


def cmd_uft(args) -> int:
    _ms, u, h_basis = _load(args.path)
    reason = None
    if h_basis is not None:
        try:
            form = to_uft(u, h_basis)
        except StructureError as exc:
            reason = f"no graph form in the given basis: {exc}"
    else:
        form = graph_form(u)
        if form is None:
            reason = "no transversal direction: the subspace meets h (x) E for every h"
    if reason is not None:
        if args.json:
            sys.stdout.write(canonical_json({"uft": None, "reason": reason}))
        else:
            print(reason)
        return 0
    data = graph_dict(form)
    if args.json:
        sys.stdout.write(canonical_json({"uft": data}))
    else:
        out = []
        out.append(f"basis of H (columns): {data['h_basis']}")
        _print_subspace("F", form.f_space, out)
        out.append(f"T (columns are images): {data['T']}")
        print("\n".join(out))
    return 0


def cmd_product(args) -> int:
    ms, u, h_basis = _load(args.path)
    vs = u.basis
    if not (0 <= args.x < len(vs)) or not (0 <= args.y < len(vs)):
        raise InstanceError("vector indices out of range")
    value = ms.hermitian_product(vs[args.x], vs[args.y], h_basis)
    parts = [format_rational(c) for c in (value.q0, value.q1, value.q2, value.q3)]
    norm_im = format_rational(value.imag().norm())
    if args.json:
        sys.stdout.write(canonical_json({"product": parts, "norm_imaginary": norm_im}))
    else:
        print("X.Y = {} + {}*i + {}*j + {}*k".format(*parts))
        print(f"N(Im(X.Y)) = {norm_im}")
    return 0


def cmd_standardize(args) -> int:
    i_mat, j_mat, k_mat = parse_structure_file(read_text(args.path))
    std = standardize(i_mat, j_mat, k_mat)
    if args.json:
        sys.stdout.write(
            canonical_json(
                {"basis": format_matrix(std.basis), "pairs": std.pairs}
            )
        )
    else:
        print(f"irreducible 2-dimensional summands: {std.pairs}")
        print("intertwining basis (columns):")
        for row in std.basis.rows:
            print("  [" + ", ".join(format_rational(x) for x in row) + "]")
    return 0


def cmd_decompose(args) -> int:
    ms, u, _h = _load(args.path)
    data = {"mode": args.mode}
    out = [f"mode: {args.mode}"]
    if args.mode == "form1":
        res = decompose_form1(u)
        if res.piece is None:
            data["piece"] = None
            out.append("decomposable piece: none (the subspace is a graph)")
        else:
            data["piece"] = piece_dict(res.piece)
            out.append(
                "decomposable piece: direction ["
                + ", ".join(data["piece"]["direction"])
                + f"], dim {res.piece.e_space.dim}"
            )
        data["graph"] = graph_dict(res.graph)
        out.append(f"graph part: dim {res.graph.dim}")
    elif args.mode == "form2":
        res = decompose_form2(u)
        data["pieces"] = [piece_dict(p) for p in res.pieces]
        for p in res.pieces:
            out.append(
                "decomposable piece: direction ["
                + ", ".join(format_rational(x) for x in p.direction)
                + f"], dim {p.e_space.dim}"
            )
        if not res.pieces:
            out.append("decomposable pieces: none")
        data["graph"] = graph_dict(res.graph)
        out.append(f"graph part without decomposable vectors: dim {res.graph.dim}")
    elif args.mode == "nilpotent":
        report = classify(ms, u)
        if report.nilpotent_report is None:
            data["nilpotent"] = None
            out.append("the subspace is not nilpotent")
        else:
            nr = report.nilpotent_report
            data["nilpotent"] = {
                "degree": nr.degree,
                "pq_part": subspace_dict(nr.pq_part),
                "decomposable": piece_dict(nr.decomposable_piece),
                "real_part": subspace_dict(nr.real_part),
                "p2_symplectic": nr.p2_symplectic,
                "nondegenerate_guaranteed": nr.nondegenerate_guaranteed,
            }
            out.append(f"degree: {nr.degree}")
            out.append(
                f"addend dims: pq {nr.pq_part.dim}, decomposable "
                f"{nr.decomposable_piece.e_space.dim}, real {nr.real_part.dim}"
            )
    else:
        res = generic_decompose(u)
        data["u0"] = subspace_dict(res.u0)
        out.append(f"maximal para-quaternionic addend: dim {res.u0.dim}")
        data["addends"] = []
        for add in res.addends:
            entry = {
                "kind": add.kind,
                "space": subspace_dict(add.space),
                "poly": [format_rational(c) for c in add.poly] if add.poly else None,
                "witness": None,
            }
            if add.witness is not None:
                entry["witness"] = {
                    "alpha": format_rational(add.witness.alpha),
                    "beta": format_rational(add.witness.beta),
                    "gamma": format_rational(add.witness.gamma),
                }
            sub_report = classify(ms, add.space)
            entry["flags"] = sub_report.flags.as_dict()
            data["addends"].append(entry)
            out.append(f"addend ({add.kind}): dim {add.space.dim}")
            expected = {
                "complex": sub_report.flags.complex,
                "weakly_para_complex": sub_report.flags.weakly_para_complex,
                "irreducible_block": sub_report.flags.pure
                and not sub_report.flags.real,
            }[add.kind]
            if not expected:
                raise CrossCheckError(f"addend fails to re-classify as {add.kind}")
        data["real_addend"] = subspace_dict(res.real_addend)
        out.append(f"real addend: dim {res.real_addend.dim}")
    if args.json:
        sys.stdout.write(canonical_json(data))
    else:
        print("\n".join(out))
    return 0


def cmd_gen(args) -> int:
    if args.kind not in KINDS:
        raise InstanceError(f"unknown kind {args.kind!r}; choose from {', '.join(KINDS)}")
    _check_n(args.n)
    if args.dim is not None:
        try:
            check_dim(args.n, args.kind, args.dim)
        except ValueError as exc:
            raise InstanceError(str(exc)) from None
    rng = Rng(args.seed)
    ms = ModelSpace.standard(args.n)
    u = generate(rng, args.n, args.kind, args.dim)
    sys.stdout.write(emit_instance(ms, u))
    return 0


def cmd_oracle(args) -> int:
    _check_n(args.n)
    if args.samples < 0:
        raise InstanceError("samples must be a nonnegative integer")
    rng = Rng(args.seed)
    ms = ModelSpace.standard(args.n)
    total = 0
    violations = []
    for i in range(args.samples):
        kind = KINDS[rng.below(len(KINDS))]
        u = generate(rng, args.n, kind)
        report = classify(ms, u)
        findings = oracle_check(ms, report, u, seed=args.seed + i)
        total += len(findings)
        violations.extend(
            (kind, f) for f in findings if not f.ok
        )
    if args.json:
        sys.stdout.write(
            canonical_json(
                {
                    "samples": args.samples,
                    "checks": total,
                    "violations": [
                        {"kind": k, "check": f.name, "detail": f.detail}
                        for k, f in violations
                    ],
                }
            )
        )
    else:
        print(f"ran {total} checks over {args.samples} generated instances")
        for k, f in violations:
            print(f"violation [{k}] {f.name}: {f.detail}")
        if not violations:
            print("no violations")
    if violations:
        raise CrossCheckError(f"{len(violations)} oracle violations")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pqh",
        description="exact classification of subspaces of a para-quaternionic "
        "Hermitian vector space",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("classify", cmd_classify, help="full taxonomy of an instance")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")

    p = add("signature", cmd_signature, help="inertia (p,s,q) of the induced metric")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")

    p = add("uft", cmd_uft, help="graph presentation (F, T) or the reason none exists")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")

    p = add("product", cmd_product, help="split-quaternion Hermitian product of two basis vectors")
    p.add_argument("path")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("standardize", cmd_standardize, help="intertwine an abstract structure triple")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")

    p = add("decompose", cmd_decompose, help="direct-sum decompositions")
    p.add_argument("path")
    p.add_argument(
        "--mode",
        choices=("generic", "form1", "form2", "nilpotent"),
        default="generic",
    )
    p.add_argument("--json", action="store_true")

    p = add("oracle", cmd_oracle, help="cross-check generated instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--json", action="store_true")

    p = add("gen", cmd_gen, help="emit a deterministic instance of a given kind")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kind", default="generic")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--n", type=int, default=2)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StructureError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (CrossCheckError, AssertionError) as exc:
        # AssertionError is what the theorem and kernel cross-checks raise
        print(f"cross-check violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

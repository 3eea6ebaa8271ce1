"""Batch command-line surface.

Machine-readable JSON goes to stdout, a one-line human summary to
stderr.  Exit codes: 0 all checks passed, 1 a check failed, 2 usage
error, 3 resource bound exceeded.

Only ``omega`` loads with this module, because the parser lists its law
kinds; each handler imports the submodule it calls, so a command loads
only what it uses.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import omega
from .errors import FamopError, ParseError, PreconditionError, ResourceBoundError


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_structure(path: str):
    data = _load_json(path)
    if isinstance(data, dict) and "table" in data:
        return omega.Magma.from_json(data)
    return omega.OmegaStructure.from_json(data)


def _emit(payload: dict, summary: str) -> None:
    print(json.dumps(payload, sort_keys=True))
    print(summary, file=sys.stderr)


def _cmd_omega_check(args) -> int:
    s = _load_structure(args.input)
    report = omega.check_laws(s, args.kind)
    _emit(report.to_json(),
          f"omega check {args.kind}: {'passed' if report.passed else 'FAILED'}")
    return 0 if report.passed else 1


def _cmd_omega_enumerate(args) -> int:
    found = omega.enumerate_structures(args.size, args.kind, force=args.force)
    payload = {"size": args.size, "kind": args.kind, "count": len(found),
               "structures": [s.to_json() for s in found]}
    _emit(payload, f"omega enumerate {args.kind} size {args.size}: {len(found)}")
    return 0


def _cmd_trees_product(args) -> int:
    from . import duplicial, trees
    s = _load_structure(args.omega)
    left = trees.parse(args.left)
    right = trees.parse(args.right)
    params = [int(v) for v in args.param.split(",")]
    if args.mode in ("prec2", "succ2"):
        if len(params) != 2:
            raise PreconditionError("two-parameter products need --param a,b")
        fn = duplicial.prec2 if args.mode == "prec2" else duplicial.succ2
        result = fn(left, right, params[0], params[1], s)
    else:
        if len(params) != 1:
            raise PreconditionError("one-parameter products need --param w")
        fn = duplicial.prec1 if args.mode == "prec1" else duplicial.succ1
        result = fn(left, right, params[0], s)
    payload = {"mode": args.mode, "param": params, "result": trees.serialize(result)}
    _emit(payload, f"trees product {args.mode}: ok")
    return 0


def _cmd_family_check(args) -> int:
    from . import duplicial
    s = _load_structure(args.omega)
    report = duplicial.check_axioms(args.mode, s, x_size=args.x_size,
                                    max_vertices=args.max_vertices)
    _emit(report.to_json(),
          f"family check {args.mode}: {'passed' if report.passed else 'FAILED'}")
    return 0 if report.passed else 1


_OPERAD_NAMES = {"twist": "pairs", "corolla": "corollas", "perm": "perm"}


def _cmd_operad_check(args) -> int:
    from . import operads
    report = operads.check_operad_laws(_OPERAD_NAMES[args.which], args.max)
    _emit(report.to_json(),
          f"operad check {args.which}: {'passed' if report.passed else 'FAILED'}")
    return 0 if report.passed else 1


def _cmd_operad_iso(args) -> int:
    from . import operads
    report = operads.psi_phi_roundtrip(args.max_arity)
    _emit(report.to_json(),
          f"operad iso up to arity {args.max_arity}: "
          f"{'passed' if report.passed else 'FAILED'}")
    return 0 if report.passed else 1


def _cmd_present_quotient(args) -> int:
    from . import presentations
    p = presentations.preset(args.preset)
    classes = presentations.quotient_classes(p, args.arity)
    payload = {"preset": args.preset, "arity": args.arity,
               "classes": len(classes),
               "representatives": [presentations.serialize_term(c[0])
                                   for c in classes]}
    _emit(payload, f"present quotient {args.preset} arity {args.arity}: "
                   f"{len(classes)} classes")
    return 0


def _cmd_present_mix(args) -> int:
    from . import presentations
    p = presentations.preset(args.preset)
    s = _load_structure(args.omega)
    tables = presentations.omega_algebra_from_structure(p, s)
    if args.coloring is not None:
        coloring = [int(v) for v in args.coloring.split(",")]
        result = presentations.mixing_filter(p, tables, args.arity,
                                             coloring, args.output)
        payload = {
            "preset": args.preset, "arity": args.arity,
            "coloring": coloring, "output": args.output,
            "consistent": result.consistent,
            "members": [presentations.serialize_term(t) for t in result.members],
            "non_members": [presentations.serialize_term(t)
                            for t in result.non_members],
        }
    else:
        census = presentations.mixing_census(p, tables, args.arity)
        payload = {"preset": args.preset, "arity": args.arity}
        payload.update({"classes": census["classes"],
                        "consistent": census["consistent"],
                        "member_counts": census["member_counts"]})
    _emit(payload, f"present mix {args.preset} arity {args.arity}: consistent")
    return 0


def _cmd_dims_r(args) -> int:
    from . import dims
    series = dims.r_sequence(args.n)
    poly = series.r(args.n)
    payload = {"n": args.n,
               "poly": json.dumps(poly.to_json(), separators=(",", ":"))}
    summary = f"dims r_{args.n}: degree {poly.degree}"
    code = 0
    if args.eval_w is not None:
        payload["value_at"] = {"w": args.eval_w, "v": str(poly(args.eval_w))}
    if args.verify:
        report = dims.verify_identities(args.n)
        payload["identities"] = report.to_json()
        if not report.passed:
            code = 1
            summary += " (identity check FAILED)"
        else:
            summary += " (identities ok)"
    _emit(payload, summary)
    return code


def _cmd_dims_count(args) -> int:
    from . import dims
    value = dims.count_basis_trees(args.n, args.w)
    payload = {"n": args.n, "w": args.w, "count": str(value)}
    _emit(payload, f"dims count n={args.n} w={args.w}: {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="famop",
        description="verification and enumeration kit for family algebraic "
                    "structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p_omega = sub.add_parser("omega", help="parameter structures")
    omega_sub = p_omega.add_subparsers(dest="subcommand", required=True)
    p = omega_sub.add_parser("check", help="law check from a Cayley JSON file")
    p.add_argument("--kind", required=True,
                   choices=sorted(omega.KIND_LAWS))
    p.add_argument("--input", required=True)
    p.set_defaults(fn=_cmd_omega_check)
    p = omega_sub.add_parser("enumerate", help="all structures of a size")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--kind", required=True, choices=sorted(omega.KIND_LAWS))
    p.add_argument("--force", action="store_true",
                   help="allow size 4 despite the default bound")
    p.set_defaults(fn=_cmd_omega_enumerate)

    p_trees = sub.add_parser("trees", help="typed tree products")
    trees_sub = p_trees.add_subparsers(dest="subcommand", required=True)
    p = trees_sub.add_parser("product", help="one product of two trees")
    p.add_argument("--mode", required=True,
                   choices=("prec1", "succ1", "prec2", "succ2"))
    p.add_argument("--omega", required=True, help="structure JSON file")
    p.add_argument("--param", required=True, help="w or a,b")
    p.add_argument("left", help="left tree in the text grammar")
    p.add_argument("right", help="right tree in the text grammar")
    p.set_defaults(fn=_cmd_trees_product)

    p_family = sub.add_parser("family", help="typed-tree axiom checks")
    family_sub = p_family.add_subparsers(dest="subcommand", required=True)
    p = family_sub.add_parser("check", help="exhaustive axiom check")
    p.add_argument("--mode", required=True,
                   choices=("two_param", "one_param", "graded"))
    p.add_argument("--omega", required=True)
    p.add_argument("--max-vertices", type=int, default=3)
    p.add_argument("--x-size", type=int, default=1)
    p.set_defaults(fn=_cmd_family_check)

    p_operad = sub.add_parser("operad", help="set operads")
    operad_sub = p_operad.add_subparsers(dest="subcommand", required=True)
    p = operad_sub.add_parser("check", help="associativity and unit laws")
    p.add_argument("--which", required=True, choices=sorted(_OPERAD_NAMES))
    p.add_argument("--max", type=int, default=3)
    p.set_defaults(fn=_cmd_operad_check)
    p = operad_sub.add_parser("iso", help="pairs vs twist-quotient roundtrip")
    p.add_argument("--max-arity", type=int, default=4)
    p.set_defaults(fn=_cmd_operad_iso)

    p_present = sub.add_parser("present", help="presented quotients")
    present_sub = p_present.add_subparsers(dest="subcommand", required=True)
    p = present_sub.add_parser("quotient", help="class count at one arity")
    p.add_argument("--preset", required=True)
    p.add_argument("--arity", type=int, required=True)
    p.set_defaults(fn=_cmd_present_quotient)
    p = present_sub.add_parser("mix", help="color-mixing membership")
    p.add_argument("--preset", required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--coloring", help="comma-separated input colors")
    p.add_argument("--output", type=int, default=0)
    p.set_defaults(fn=_cmd_present_mix)

    p_dims = sub.add_parser("dims", help="dimension polynomials")
    dims_sub = p_dims.add_subparsers(dest="subcommand", required=True)
    p = dims_sub.add_parser("r", help="one dimension polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eval", dest="eval_w", type=int)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=_cmd_dims_r)
    p = dims_sub.add_parser("count", help="pattern-avoiding tree count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.set_defaults(fn=_cmd_dims_count)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ResourceBoundError as exc:
        print(json.dumps({"error": str(exc)}))
        print(f"resource bound: {exc}", file=sys.stderr)
        return 3
    except (PreconditionError, ParseError, FamopError, OSError,
            json.JSONDecodeError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Exit codes: 0 success, 1 a checked property failed (a witness is printed),
2 malformed input.  Subcommands that need a Bernstein algebra exit 1 on a
baric input that is not one, with the broken weight pair or Bernstein
identity as the witness.  All subcommands accept '-' for stdin and support
--json; reports are deterministic for fixed inputs and --seed-rng.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .algebra import CHAIN_KINDS, ChainCapError, power_chain
from .bernstein import (BaricAlgebra, NotBernsteinError, classify, find_idempotent,
                        peirce, quotient)
from .families import FAMILY_KINDS, make_family
from .fileformat import (ParseError, from_algebra, parse, serialize,
                         to_algebra)
from .linalg import Subspace
from .nilpotence import (greatest_fixed_subspace, mult_closure_nilpotent,
                         stable_subspace_check)
from .report import (build_report, certificate_summary, check_json, coords_json,
                     emit_report, flags_json, subspace_json)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str):
    f = parse(_read_text(path))
    return f, to_algebra(f)


def _out(args, payload: dict, text_lines) -> None:
    if args.json:
        sys.stdout.write(emit_report(payload))
    else:
        for line in text_lines:
            print(line)


def _element_from_expr(algebra, expr: str):
    """Parse '<p/q> <id> [+ <p/q> <id>]...' into an element."""
    tokens = expr.replace("+", " ").split()
    if len(tokens) % 2 != 0 or not tokens:
        raise ValueError(f"bad element expression {expr!r}")
    coords = [algebra.field.zero] * algebra.dim
    for i in range(0, len(tokens), 2):
        coeff = Fraction(tokens[i])
        idx = algebra.index_of(tokens[i + 1])
        coords[idx] += coeff
    return algebra.element(coords)


def _subspace_from_spec(algebra, spec: str) -> Subspace:
    """Parse 'p/q,p/q,...;p/q,...' rows into a subspace."""
    rows = []
    spec = spec.strip()
    if spec:
        for chunk in spec.split(";"):
            row = [Fraction(tok) for tok in chunk.split(",")]
            if len(row) != algebra.dim:
                raise ValueError("subspace row length does not match the dimension")
            rows.append(row)
    return Subspace(rows, algebra.dim, algebra.field)


def _require_baric(alg) -> BaricAlgebra:
    if not isinstance(alg, BaricAlgebra):
        raise ValueError("this command needs a baric file (declare weight lines)")
    return alg


def cmd_check(args) -> int:
    _, alg = _load(args.file)
    report, status = build_report(args.name or _algebra_name(args.file), alg,
                                  args.max_steps, args.seed_rng)
    if args.json:
        sys.stdout.write(emit_report(report))
    else:
        _print_check_text(report)
    return status


def _algebra_name(path: str) -> str:
    if path == "-":
        return "stdin"
    stem = path.rsplit("/", 1)[-1]
    return stem.rsplit(".", 1)[0]


def _print_check_text(report: dict) -> None:
    print(f"algebra {report['algebra']} (dim {report['dimension']})")
    if not report["baric"]:
        for ident, res in report["identities"].items():
            print(f"  identity {ident}: {'holds' if res is True else 'FAILS'}")
        print(f"  chains: {report['chains']}")
        return
    if not report["weight_ok"]:
        print("  weight: INVALID")
        print(f"  witness: {report['weight_witness']}")
        return
    print("  weight: ok")
    for ident, res in report["identities"].items():
        print(f"  identity {ident}: {'holds' if res is True else 'FAILS'}")
    flags = report["flags"]
    print("  flags: " + ", ".join(f"{k}={v}" for k, v in flags.items()))
    if "witnesses" in report:
        for key, w in report["witnesses"].items():
            print(f"  witness[{key}]: {w}")
    if "peirce" in report:
        pz = report["peirce"]
        print(f"  peirce: dim U={pz['u_dim']}, dim V={pz['v_dim']}, "
              f"dim annU={pz['ann_u_dim']}, relations_ok={pz['relations_ok']}")
        if not pz["relations_ok"]:
            print(f"  witness[peirce]: {pz['relations_witness']}")
    if "chains" in report:
        print(f"  chains: {report['chains']}")
    if "fixed_subspace" in report:
        print(f"  fixed subspace chain dims: {report['fixed_subspace']['chain_dims']}"
              f" (gfp dim {report['fixed_subspace']['gfp_dim']})")
    if "mult_closure" in report:
        print(f"  mult closure: {report['mult_closure']}")
    if "certificate" in report:
        print(f"  certificate: {report['certificate']}")


def cmd_classify(args) -> int:
    _, alg = _load(args.file)
    name = args.name or _algebra_name(args.file)
    if not isinstance(alg, BaricAlgebra):
        payload = {"algebra": name, "baric": False}
        _out(args, payload, [f"algebra {name}: not baric"])
        return 0
    flags = classify(alg)
    shown = flags_json(flags)
    payload = {"algebra": name, **shown}
    if flags.witnesses:
        payload["witnesses"] = {k: check_json(v) for k, v in flags.witnesses.items()}
    _out(args, payload,
         [f"algebra {name}: " + ", ".join(f"{k}={v}" for k, v in shown.items())])
    return 0 if flags.is_baric and flags.is_bernstein is not False else 1


def cmd_peirce(args) -> int:
    _, alg = _load(args.file)
    b = _require_baric(alg)
    seed = _element_from_expr(b.algebra, args.seed) if args.seed else None
    e = find_idempotent(b, seed)
    p = peirce(b, e)
    payload = {
        "idempotent": coords_json(p.e.coords),
        "n_dim": p.N.dim,
        "u_dim": p.U.dim,
        "v_dim": p.V.dim,
        "u_basis": subspace_json(p.U),
        "v_basis": subspace_json(p.V),
        "ann_u_basis": subspace_json(p.annU),
    }
    _out(args, payload, [
        f"idempotent: {p.e}",
        f"dim N = {p.N.dim}, dim U = {p.U.dim}, dim V = {p.V.dim}, "
        f"dim annU = {p.annU.dim}",
        f"U basis: {subspace_json(p.U)}",
        f"V basis: {subspace_json(p.V)}",
        f"annU basis: {subspace_json(p.annU)}",
    ])
    return 0


def cmd_powers(args) -> int:
    _, alg = _load(args.file)
    if isinstance(alg, BaricAlgebra) and args.barideal:
        algebra, start = alg.algebra, alg.barideal()
    else:
        algebra = alg.algebra if isinstance(alg, BaricAlgebra) else alg
        start = algebra.full_space()
    chain = power_chain(algebra, start, args.kind, args.max_steps)
    payload = {
        "kind": chain.kind,
        "term_dims": [t.dim for t in chain.terms],
        "stabilized": chain.stabilized,
        "nil_index": chain.nil_index,
        "terms": [subspace_json(t) for t in chain.terms],
    }
    _out(args, payload, [
        f"{args.kind} chain dims: {payload['term_dims']}",
        f"stabilized: {chain.stabilized}, nil index: {chain.nil_index}",
    ])
    return 0


def cmd_fixedspace(args) -> int:
    _, alg = _load(args.file)
    b = _require_baric(alg)
    res = greatest_fixed_subspace(b, peirce(b))
    payload = {
        "chain_dims": [t.dim for t in res.chain],
        "steps": res.steps,
        "gfp_dim": res.gfp.dim,
        "gfp_basis": subspace_json(res.gfp),
    }
    _out(args, payload, [
        f"chain dims: {payload['chain_dims']}",
        f"greatest fixed subspace dim: {res.gfp.dim}",
    ])
    return 0


def cmd_multalg(args) -> int:
    _, alg = _load(args.file)
    b = _require_baric(alg)
    closure = mult_closure_nilpotent(b, peirce(b))
    payload = {
        "generator_count": len(closure.generators),
        "closure_dim": len(closure.span_closure),
        "nilpotent": closure.nilpotent,
        "nil_index": closure.nil_index,
    }
    _out(args, payload, [
        f"generators: {payload['generator_count']}, closure dim: "
        f"{payload['closure_dim']}",
        f"nilpotent: {closure.nilpotent}, nil index: {closure.nil_index}",
    ])
    return 0


def cmd_stability(args) -> int:
    _, alg = _load(args.file)
    b = _require_baric(alg)
    s = _subspace_from_spec(b.algebra, args.subspace)
    rep = stable_subspace_check(b, peirce(b), s)
    payload = {
        "subspace_dim": s.dim,
        "ni_eq_i": rep.ni_eq_i,
        "vi_eq_i": rep.vi_eq_i,
        "conclusion_holds": rep.conclusion_holds,
    }
    _out(args, payload, [
        f"N*I = I: {rep.ni_eq_i}; V*I = I: {rep.vi_eq_i}; "
        f"conclusion holds: {rep.conclusion_holds}",
    ])
    return 0 if rep.conclusion_holds else 1


def cmd_decompose(args) -> int:
    _, alg = _load(args.file)
    if isinstance(alg, BaricAlgebra):
        algebra, n = alg.algebra, alg.barideal()
    else:
        algebra, n = alg, alg.full_space()
    gens = None
    if args.gens:
        gens = [algebra.basis_element(algebra.index_of(g.strip()))
                for g in args.gens.split(",") if g.strip()]
    payload = certificate_summary(algebra, n, gens, args.max_steps)
    lines = [f"certificate: {payload}"]
    _out(args, payload, lines)
    if "error" in payload:
        return 1
    return 0 if payload["n_equals_f_plus_nm"] and payload["n_nilpotent"] else 1


def cmd_family(args) -> int:
    alg = make_family(args.kind, args.n)
    name = f"{args.kind}{args.n or ''}" if args.kind != "jordan3" else "jordan3"
    text = serialize(from_algebra(alg, name))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_quotient(args) -> int:
    _, alg = _load(args.file)
    b = _require_baric(alg)
    if args.by == "annU":
        ideal = peirce(b).annU
    else:
        ideal = _subspace_from_spec(b.algebra, args.by)
    q = quotient(b, ideal)
    name = (args.name or _algebra_name(args.file)) + "_quot"
    sys.stdout.write(serialize(from_algebra(q, name)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON output")
    common.add_argument("--seed-rng", type=int, default=0, metavar="INT",
                        help="seed for randomized witness fallbacks")
    common.add_argument("--max-steps", type=int, default=None, metavar="INT",
                        help="cap on power chain length")
    common.add_argument("--name", default=None, help="override the report name")

    parser = argparse.ArgumentParser(
        prog="bernalg",
        description="Exact structure analysis of commutative algebras "
                    "given by structure constants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="identities, flags and the full report")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("classify", parents=[common], help="classification flags")
    p.add_argument("file")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("peirce", parents=[common], help="Peirce decomposition")
    p.add_argument("file")
    p.add_argument("--seed", default=None, metavar="EXPR",
                   help="weight-one seed element, e.g. '1 e + 1 u1'")
    p.set_defaults(fn=cmd_peirce)

    p = sub.add_parser("powers", parents=[common], help="power chains")
    p.add_argument("file")
    p.add_argument("--kind", choices=CHAIN_KINDS, required=True)
    p.add_argument("--barideal", action="store_true",
                   help="chain of the barideal instead of the whole space")
    p.set_defaults(fn=cmd_powers)

    p = sub.add_parser("fixedspace", parents=[common],
                       help="greatest subspace I with V*I = I")
    p.add_argument("file")
    p.set_defaults(fn=cmd_fixedspace)

    p = sub.add_parser("multalg", parents=[common],
                       help="multiplication closure of V on N")
    p.add_argument("file")
    p.set_defaults(fn=cmd_multalg)

    p = sub.add_parser("stability", parents=[common],
                       help="compare N*I = I with V*I = I for a subspace I")
    p.add_argument("file")
    p.add_argument("--subspace", required=True, metavar="ROWS",
                   help="semicolon-separated coordinate rows, e.g. '0,0,1;0,1,0'")
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("decompose", parents=[common],
                       help="decomposition certificate N = F + N^m")
    p.add_argument("file")
    p.add_argument("--gens", default=None, metavar="IDS",
                   help="comma-separated basis names generating N as an ideal")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("family", parents=[common], help="emit a family algebra file")
    p.add_argument("kind", choices=FAMILY_KINDS)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("quotient", parents=[common], help="baric quotient file")
    p.add_argument("file")
    p.add_argument("--by", required=True, metavar="annU|ROWS",
                   help="'annU' or semicolon-separated coordinate rows")
    p.set_defaults(fn=cmd_quotient)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NotBernsteinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        witnesses = {k: check_json(w) for k, w in exc.witnesses().items()}
        _out(args, {"error": str(exc), "witnesses": witnesses},
             [f"witness[{k}]: {w}" for k, w in witnesses.items()])
        return 1
    except (OSError, ValueError, KeyError, ZeroDivisionError, ChainCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

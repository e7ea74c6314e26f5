"""Command-line interface.

Exit codes: 0 success, 1 a checked property failed (a witness is printed),
2 malformed input.  Subcommands that need a Bernstein algebra exit 1 on a
baric input that is not one, with the broken weight pair or Bernstein
identity as the witness.  Subcommands that read a file accept '-' for
stdin.  Every subcommand supports --json; `family` and `quotient` print an
algebra file with or without it.  Reports are deterministic: the same
input gives the same bytes.

Every subcommand checks --max-steps first (below 1 exits 2), then reads its
file once into one `bernstein.Analysis` and takes each fact from it.  The
checks run in one order: the gate (baric, and Bernstein wherever the Peirce
split is read), then any --subspace/--by rows, then the split.  The gate
may make the default split itself, for the proof of the Bernstein identity,
and the handler reads that split; the exit codes keep the order.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .algebra import CHAIN_KINDS, ChainCapError, _check_max_steps, power_chain
from .bernstein import Analysis, NotBernsteinError, classify, find_idempotent, peirce, quotient
from .families import FAMILY_KINDS, make_family
from .fileformat import MAX_DIM, from_algebra, parse, serialize, spec_rational, to_algebra
from .linalg import Subspace
from .nilpotence import (greatest_fixed_subspace, mult_closure_nilpotent,
                         stable_subspace_check)
from .report import (build_report, certificate_summary, check_json, coords_json,
                     emit_report, flags_section, mult_closure_json, subspace_json)


# `powers` lists one term per chain position, and a full chain's length
# grows with its nil index (2^29 + 1 for squareshift(30)), so a longer
# listing is refused before it is expanded
MAX_LISTED_POSITIONS = 10_000


def _load(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return to_algebra(parse(text))


def _lines(*lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _out(args, payload, text: str) -> None:
    """The payload under --json and the text otherwise; a None payload marks
    an algebra file, which is printed either way."""
    sys.stdout.write(emit_report(payload) if args.json and payload is not None else text)


def _element_from_expr(algebra, expr: str):
    """Parse '<p/q> <id> [+ <p/q> <id>]...' into an element."""
    tokens = expr.replace("+", " ").split()
    if len(tokens) % 2 != 0 or not tokens:
        raise ValueError(f"bad element expression {expr!r}")
    coords = [algebra.field.zero] * algebra.dim
    for i in range(0, len(tokens), 2):
        coeff = spec_rational(tokens[i])
        idx = algebra.index_of(tokens[i + 1])
        coords[idx] += coeff
    return algebra.element(coords)


def _subspace_from_spec(algebra, spec: str) -> Subspace:
    """Parse 'p/q,p/q,...;p/q,...' rows into a subspace."""
    rows = []
    spec = spec.strip()
    if spec:
        chunks = spec.split(";")
        if len(chunks) > MAX_DIM:
            raise ValueError(f"{len(chunks)} subspace rows exceed the dimension cap "
                             f"MAX_DIM = {MAX_DIM}")
        for n, chunk in enumerate(chunks, 1):
            if not chunk.strip():
                raise ValueError(f"subspace row {n} of {len(chunks)} is empty")
            row = [spec_rational(tok) for tok in chunk.split(",")]
            if len(row) != algebra.dim:
                raise ValueError("subspace row length does not match the dimension")
            rows.append(row)
    return Subspace(rows, algebra.dim, algebra.field)


def _require_baric(an: Analysis) -> Analysis:
    if not an.baric:
        raise ValueError("this command needs a baric file (declare weight lines)")
    return an


def _require_bernstein(an: Analysis) -> Analysis:
    """The analysis, once the input's weight and Bernstein identity are
    verified: a Peirce split can succeed on an algebra that is not Bernstein."""
    failed = _require_baric(an).bernstein_witnesses
    if failed:
        step = "weight" if "baric" in failed else "Bernstein identity"
        raise NotBernsteinError(f"the {step} check fails; the algebra is not Bernstein", failed)
    return an


def _algebra_name(args) -> str:
    if args.name:
        return args.name
    return "stdin" if args.file == "-" else args.file.rsplit("/", 1)[-1].rsplit(".", 1)[0]


def _flags_text(flags: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in flags.items())


def cmd_check(args, an):
    report, status = build_report(_algebra_name(args), an.source, args.max_steps)
    return report, _check_text(report), status


def _check_text(report: dict) -> str:
    lines = [f"algebra {report['algebra']} (dim {report['dimension']})"]
    if report["baric"]:
        if not report["weight_ok"]:
            return _lines(*lines, "  weight: INVALID",
                          f"  witness: {report['weight_witness']}")
        lines.append("  weight: ok")
    lines += [f"  identity {ident}: {'holds' if res is True else 'FAILS'}"
              for ident, res in report["identities"].items()]
    if "flags" in report:
        lines.append("  flags: " + _flags_text(report["flags"]))
    lines += [f"  witness[{key}]: {w}" for key, w in report.get("witnesses", {}).items()]
    if "peirce" in report:
        pz = report["peirce"]
        lines.append(f"  peirce: dim U={pz['u_dim']}, dim V={pz['v_dim']}, "
                     f"dim annU={pz['ann_u_dim']}, relations_ok={pz['relations_ok']}")
        if not pz["relations_ok"]:
            lines.append(f"  witness[peirce]: {pz['relations_witness']}")
    if "chains" in report:
        lines.append(f"  chains: {report['chains']}")
    if "fixed_subspace" in report:
        fs = report["fixed_subspace"]
        lines.append(f"  fixed subspace chain dims: {fs['chain_dims']} (gfp dim {fs['gfp_dim']})")
    if "mult_closure" in report:
        lines.append(f"  mult closure: {report['mult_closure']}")
    if "certificate" in report:
        lines.append(f"  certificate: {report['certificate']}")
    return _lines(*lines)


def cmd_classify(args, an):
    name = _algebra_name(args)
    if not an.baric:
        return {"algebra": name, "baric": False}, _lines(f"algebra {name}: not baric"), 0
    flags = classify(an.source)
    section = flags_section(flags)
    shown = section.pop("flags")
    status = 0 if flags.is_baric and flags.is_bernstein is not False else 1
    return ({"algebra": name, **shown, **section},
            _lines(f"algebra {name}: " + _flags_text(shown)), status)


def cmd_peirce(args, an):
    b = _require_bernstein(an).source
    p = (peirce(b, find_idempotent(b, _element_from_expr(an.algebra, args.seed)))
         if args.seed else an.peirce)
    payload = {
        "idempotent": coords_json(p.e.coords),
        "n_dim": p.N.dim,
        "u_dim": p.U.dim,
        "v_dim": p.V.dim,
        "u_basis": subspace_json(p.U),
        "v_basis": subspace_json(p.V),
        "ann_u_basis": subspace_json(p.annU),
    }
    return payload, _lines(
        f"idempotent: {p.e}",
        f"dim N = {p.N.dim}, dim U = {p.U.dim}, dim V = {p.V.dim}, "
        f"dim annU = {p.annU.dim}",
        f"U basis: {payload['u_basis']}",
        f"V basis: {payload['v_basis']}",
        f"annU basis: {payload['ann_u_basis']}",
    ), 0


def cmd_powers(args, an):
    start = _require_baric(an).start if args.barideal else an.algebra.full_space()
    chain = power_chain(an.algebra, start, args.kind, args.max_steps)
    length = chain.runs[-1].end
    if length > MAX_LISTED_POSITIONS:
        raise ValueError(f"the {args.kind} chain has {length} positions and powers lists "
                         f"at most {MAX_LISTED_POSITIONS}; pass --max-steps "
                         f"{MAX_LISTED_POSITIONS} or less to truncate it")
    payload = {
        "kind": chain.kind,
        "term_dims": [t.dim for t in chain.terms],
        "stabilized": chain.stabilized,
        "nil_index": chain.nil_index,
        "terms": [subspace_json(t) for t in chain.terms],
    }
    return payload, _lines(
        f"{args.kind} chain dims: {payload['term_dims']}",
        f"stabilized: {chain.stabilized}, nil index: {chain.nil_index}",
    ), 0


def cmd_fixedspace(args, an):
    res = greatest_fixed_subspace(an.source, _require_bernstein(an).peirce)
    payload = {
        "chain_dims": [t.dim for t in res.chain],
        "steps": res.steps,
        "gfp_dim": res.gfp.dim,
        "gfp_basis": subspace_json(res.gfp),
    }
    return payload, _lines(
        f"chain dims: {payload['chain_dims']}",
        f"greatest fixed subspace dim: {res.gfp.dim}",
    ), 0


def cmd_multalg(args, an):
    payload = mult_closure_json(mult_closure_nilpotent(an.source, _require_bernstein(an).peirce))
    return payload, _lines(
        f"generators: {payload['generator_count']}, closure dim: "
        f"{payload['closure_dim']}",
        f"nilpotent: {payload['nilpotent']}, nil index: {payload['nil_index']}",
    ), 0


def cmd_stability(args, an):
    _require_bernstein(an)
    s = _subspace_from_spec(an.algebra, args.subspace)
    rep = stable_subspace_check(an.source, an.peirce, s)
    payload = {
        "subspace_dim": s.dim,
        "ni_eq_i": rep.ni_eq_i,
        "vi_eq_i": rep.vi_eq_i,
        "conclusion_holds": rep.conclusion_holds,
    }
    return payload, _lines(
        f"N*I = I: {rep.ni_eq_i}; V*I = I: {rep.vi_eq_i}; "
        f"conclusion holds: {rep.conclusion_holds}",
    ), 0 if rep.conclusion_holds else 1


def cmd_decompose(args, an):
    algebra = an.algebra
    gens = [algebra.basis_element(algebra.index_of(g.strip()))
            for g in args.gens.split(",") if g.strip()] if args.gens else None
    payload = certificate_summary(algebra, an.start, gens, args.max_steps)
    holds = "error" not in payload and payload["n_equals_f_plus_nm"] and payload["n_nilpotent"]
    return payload, _lines(f"certificate: {payload}"), 0 if holds else 1


def cmd_family(args, an):
    fam = make_family(args.kind, args.n)
    name = f"{args.kind}{args.n or ''}" if args.kind != "jordan3" else "jordan3"
    text = serialize(from_algebra(fam, name))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return None, "" if args.out else text, 0


def cmd_quotient(args, an):
    ideal = (_require_bernstein(an).peirce.annU if args.by == "annU"
             else _subspace_from_spec(_require_baric(an).algebra, args.by))
    q = quotient(an.source, ideal)
    return None, serialize(from_algebra(q, _algebra_name(args) + "_quot")), 0


_FILE = ("file", {})
# name -> (handler, help, arguments as (flag, add_argument options)), in the
# order `bernalg --help` lists them
COMMANDS = {
    "check": (cmd_check, "identities, flags and the full report", [_FILE]),
    "classify": (cmd_classify, "classification flags", [_FILE]),
    "peirce": (cmd_peirce, "Peirce decomposition", [_FILE, ("--seed", dict(
        default=None, metavar="EXPR", help="weight-one seed element, e.g. '1 e + 1 u1'"))]),
    "powers": (cmd_powers, "power chains", [
        _FILE, ("--kind", dict(choices=CHAIN_KINDS, required=True)),
        ("--barideal", dict(action="store_true",
                            help="chain of the barideal instead of the whole space"))]),
    "fixedspace": (cmd_fixedspace, "greatest subspace I with V*I = I", [_FILE]),
    "multalg": (cmd_multalg, "multiplication closure of V on N", [_FILE]),
    "stability": (cmd_stability, "compare N*I = I with V*I = I for a subspace I", [
        _FILE, ("--subspace", dict(required=True, metavar="ROWS", help=(
            "semicolon-separated coordinate rows, e.g. '0,0,1;0,1,0'")))]),
    "decompose": (cmd_decompose, "decomposition certificate N = F + N^m", [_FILE, (
        "--gens", dict(default=None, metavar="IDS",
                       help="comma-separated basis names generating N as an ideal"))]),
    "family": (cmd_family, "emit a family algebra file", [
        ("kind", dict(choices=FAMILY_KINDS)), ("--n", dict(type=int, default=None)),
        ("--out", dict(default=None))]),
    "quotient": (cmd_quotient, "baric quotient file", [_FILE, ("--by", dict(
        required=True, metavar="annU|ROWS",
        help="'annU' or semicolon-separated coordinate rows"))]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser with every subparser, built once per process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON output")
    common.add_argument("--max-steps", type=int, default=None, metavar="INT",
                        help="cap on power chain length")
    common.add_argument("--name", default=None, help="override the report name")

    parser = argparse.ArgumentParser(
        prog="bernalg",
        description="Exact structure analysis of commutative algebras "
                    "given by structure constants.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(fn=fn)
    return parser


def _run(args):
    """(payload, text, status) of the subcommand, or of the Bernstein
    failure it raised, with its message on stderr."""
    try:
        _check_max_steps(args.max_steps)
        return args.fn(args, Analysis(_load(args.file)) if "file" in args else None)
    except NotBernsteinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        witnesses = {k: check_json(w) for k, w in exc.witnesses.items()}
        return ({"error": str(exc), "witnesses": witnesses},
                _lines(*(f"witness[{k}]: {w}" for k, w in witnesses.items())), 1)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, text, status = _run(args)
        _out(args, payload, text)
        return status
    except (OSError, ValueError, KeyError, ZeroDivisionError, ChainCapError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

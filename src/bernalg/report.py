"""Assembly of machine-readable reports with a stable key order.

Reports are plain dicts built in a fixed insertion order and serialized
with json.dumps, so identical inputs give byte-identical output.  Exact
rationals are rendered as 'p' or 'p/q' strings; subspaces as their RREF
basis rows.

Each build_report call makes one fresh `bernstein.Analysis` for its input
and renders every section from it, so the weight verdict, each identity
verdict, the Peirce data and each power chain of the start subspace (N for
baric input, the whole space otherwise) are computed once per report, and
the certificate is read from N's full chain.  The Analysis dies with the
call.  Subspace products are memoised on the algebra itself for its
lifetime, so a product that several sections need (U*U, V*V, N*N, ...) is
computed once per algebra; nothing is cached at module level.
"""

from __future__ import annotations

import json

from .algebra import CHAIN_KINDS, FULL, NilpotencyReport, _check_max_steps
from .bernstein import Analysis, check_peirce_relations
# bench/tests reads report.check_identity, so the name stays importable here
from .identities import Witness, check_identity  # noqa: F401
from .linalg import Subspace
from .nilpotence import (DecompositionCertificate, MultClosure, _no_certificate,
                         decompose_nilpotent_ideal, greatest_fixed_subspace,
                         mult_closure_nilpotent)


def coords_json(coords) -> list:
    return [str(c) for c in coords]


def subspace_json(s: Subspace) -> list:
    return [coords_json(row) for row in s.rows]


def witness_json(w: Witness) -> dict:
    out = {"assignment": {var: coords_json(e.coords) for var, e in w.assignment}}
    residual = w.residual
    out["residual"] = coords_json(residual.coords) if hasattr(residual, "coords") \
        else str(residual)
    if w.note:
        out["note"] = w.note
    return out


def check_json(result) -> object:
    if result is True:
        return True
    if isinstance(result, Witness):
        return witness_json(result)
    if isinstance(result, Subspace):
        return subspace_json(result)
    return result


def flags_section(flags) -> dict:
    """The classification flags, then a witness for each flag that fails."""
    section = {"flags": {
        "baric": flags.is_baric,
        "bernstein": flags.is_bernstein,
        "jordan": flags.is_jordan,
        "nuclear": flags.is_nuclear,
        "barideal_nilpotent": flags.barideal_nilpotent,
    }}
    if flags.witnesses:
        section["witnesses"] = {k: check_json(v) for k, v in flags.witnesses.items()}
    return section


def chain_summary(an: Analysis, max_steps=None) -> dict:
    rep = NilpotencyReport.of_chains(*(an.chain(kind, max_steps) for kind in CHAIN_KINDS))
    return {
        "full_nil_index": rep.nil_index_full,
        "principal_nil_index": rep.nil_index_principal,
        "solvability_index": rep.solv_index,
    }


def build_report(name: str, alg, max_steps=None) -> tuple[dict, int]:
    """Full pipeline report for one algebra; the int is the exit status
    (0 ok, 1 when a structural property fails with a witness)."""
    an = Analysis(alg)
    algebra = an.algebra
    report = {
        "algebra": name,
        "dimension": algebra.dim,
        "basis": list(algebra.basis_names),
        "baric": an.baric,
    }
    if an.baric:
        report["weight_ok"] = an.weight_ok is True
        if an.weight_ok is not True:
            report["weight_witness"] = witness_json(an.weight_ok)
            return report, 1
    report["identities"] = {ident.value: check_json(an.identity(ident))
                            for ident in an.battery}
    if not an.baric:
        report["chains"] = chain_summary(an, max_steps)
        return report, 0

    flags = an.flags
    report.update(flags_section(flags))
    if not flags.is_bernstein:
        return report, 1

    p = an.peirce
    relations = check_peirce_relations(alg, p)
    report["peirce"] = {
        "idempotent": coords_json(p.e.coords),
        "n_dim": p.N.dim,
        "u_dim": p.U.dim,
        "v_dim": p.V.dim,
        "ann_u_dim": p.annU.dim,
        "ann_u_basis": subspace_json(p.annU),
        "relations_ok": relations is True,
    }
    status = 0
    if relations is not True:
        report["peirce"]["relations_witness"] = witness_json(relations)
        status = 1
    report["chains"] = chain_summary(an, max_steps)
    gfp = greatest_fixed_subspace(alg, p)
    report["fixed_subspace"] = {
        "chain_dims": [t.dim for t in gfp.chain],
        "gfp_dim": gfp.gfp.dim,
    }
    report["mult_closure"] = mult_closure_json(mult_closure_nilpotent(alg, p))
    report["certificate"] = chain_certificate(p.N, an.chain(FULL, max_steps))
    return report, status


def mult_closure_json(closure: MultClosure) -> dict:
    return {
        "generator_count": len(closure.generators),
        "closure_dim": closure.closure.dim,
        "nilpotent": closure.nilpotent,
        "nil_index": closure.nil_index,
    }


def chain_certificate(n: Subspace, n_chain) -> dict:
    """`certificate_summary` of the barideal N of a Bernstein algebra and its
    own rows, read from N's full power chain: N is an ideal and a subalgebra,
    so F = N, m is N's full nil index and every check holds by construction."""
    m = n_chain.nil_index
    if m is None:
        return {"error": _no_certificate(n_chain)}
    return certificate_json(DecompositionCertificate(n, m, m, True, True))


def certificate_summary(algebra, n: Subspace, gens, max_steps=None) -> dict:
    """Decomposition certificate summary, fully checked; by default the
    ideal generators are the RREF basis rows of N itself.  A max_steps
    below 1 raises ValueError: it is a bad argument, not a failed check."""
    _check_max_steps(max_steps)
    if gens is None:
        gens = [algebra.element(row) for row in n.rows]
    try:
        return certificate_json(decompose_nilpotent_ideal(algebra, n, gens, max_steps))
    except (ValueError, AssertionError, RuntimeError) as exc:
        return {"error": str(exc)}


def certificate_json(cert: DecompositionCertificate) -> dict:
    return {
        "f_dim": cert.F.dim,
        "m": cert.m,
        "power_inclusions_checked_up_to": cert.eq_checked_up_to,
        "n_equals_f_plus_nm": cert.n_equals_f_plus_nm,
        "n_nilpotent": cert.n_nilpotent,
    }


def emit_report(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"

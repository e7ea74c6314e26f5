"""Exact-arithmetic toolkit for finite-dimensional commutative
nonassociative algebras given by structure constants.

`import bernalg` imports no submodule.  Each public name is imported from
the module that defines it on first access (PEP 562) and then bound here,
so `bernalg.X` is the very object `bernalg.<module>.X` is, and reading an
algebra file loads only `fields`, `linalg`, `algebra` and `fileformat`.
"""

import importlib

__version__ = "0.1.0"

# each module's public names
_EXPORTS = {
    "algebra": ("CHAIN_KINDS", "FULL", "PLENARY", "PRINCIPAL", "BaricAlgebra", "CommAlgebra",
                "Element", "NilpotencyReport", "PowerChain", "generated_ideal",
                "generated_subalgebra", "is_ideal", "nilpotency_report", "plenary_power",
                "power_chain", "subalgebra_on", "subspace_product", "weight_of"),
    "bernstein": ("Analysis", "ClassificationFlags", "NotBernsteinError", "PeirceData",
                  "bernstein_witnesses", "check_peirce_relations", "classify",
                  "find_idempotent", "nuclear_core", "peirce", "quotient", "verify_weight"),
    "families": ("FAMILY_KINDS", "make_family", "plenary_trace"),
    "fields": ("QQ", "ModP", "PrimeField"),
    "fileformat": ("AlgebraFile", "ParseError", "from_algebra", "parse", "serialize",
                   "to_algebra"),
    "identities": ("Identity", "Witness", "check_identity", "identity_defect"),
    "linalg": ("Matrix", "Subspace"),
    "nilpotence": ("DecompositionCertificate", "FixedSubspaceResult", "MultClosure",
                   "StabilityReport", "SubmoduleIdealReport", "decompose_nilpotent_ideal",
                   "greatest_fixed_subspace", "module_action", "mult_closure_nilpotent",
                   "stable_subspace_check", "submodule_ideal_check"),
    "report": ("build_report", "emit_report"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Exact-arithmetic toolkit for finite-dimensional commutative
nonassociative algebras given by structure constants."""

from .algebra import (CHAIN_KINDS, FULL, PLENARY, PRINCIPAL, CommAlgebra,
                      Element, NilpotencyReport, PowerChain, generated_ideal,
                      generated_subalgebra, is_ideal, nilpotency_report,
                      plenary_power, power_chain, subalgebra_on,
                      subspace_product, weight_of)
from .bernstein import (Analysis, BaricAlgebra, ClassificationFlags,
                        NotBernsteinError, PeirceData, bernstein_witnesses,
                        check_peirce_relations, classify, find_idempotent,
                        nuclear_core, peirce, quotient, verify_weight)
from .families import FAMILY_KINDS, make_family, plenary_trace
from .fields import QQ, ModP, PrimeField
from .fileformat import (AlgebraFile, ParseError, from_algebra, parse,
                         serialize, to_algebra)
from .identities import Identity, Witness, check_identity, identity_defect
from .linalg import Matrix, Subspace
from .nilpotence import (DecompositionCertificate, FixedSubspaceResult,
                         MultClosure, StabilityReport, SubmoduleIdealReport,
                         decompose_nilpotent_ideal, greatest_fixed_subspace,
                         module_action, mult_closure_nilpotent,
                         stable_subspace_check, submodule_ideal_check)
from .report import build_report, emit_report

__version__ = "0.1.0"

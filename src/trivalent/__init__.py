"""Three-valued consequence relations over Boolean-normal monotonic schemes.

The package decides validity under the four strict/tolerant standards,
computes transitive and dual transitive closures of finite inference sets,
constructs two-step derivations certifying the collapse to classical
logic, and ships a desk-scale verification suite for all of it.
"""

from .errors import MissingAtomError, ParseError, ResourceLimitError, TrivalentError
from .formula import (
    And,
    Formula,
    Inference,
    Neg,
    Or,
    Substitution,
    Var,
    atoms,
    depth,
    enumerate_formulas,
    parse,
    parse_inference,
    substitute,
    substitute_inference,
)
from .scheme import (
    Scheme,
    TruthValue,
    enumerate_bnm_schemes,
    info_leq,
    is_boolean_normal,
    is_bnm,
    is_monotonic,
    preset,
    scheme_from_id,
    scheme_from_text,
    scheme_id,
    scheme_to_text,
)
from .semantics import (
    LogicSpec,
    SS,
    ST,
    STRICT,
    TOLERANT,
    TS,
    TT,
    FormulaStandard,
    Standard,
    Valuation,
    eval_formula,
    find_countervaluation,
    is_antitheorem,
    is_classically_valid,
    is_theorem,
    is_valid,
    parse_standard,
    satisfies_inference,
)
from .closure import (
    InferenceSet,
    Universe,
    check_operator_laws,
    dual_transitive_closure,
    tarskian_closure,
    transitive_closure,
    universe_inferences,
)
from .characterize import (
    DerivationWitness,
    FamilyMember,
    LatticeFamily,
    check_star_lattice,
    check_td_equals_star,
    check_ts_collapse,
    check_union_gap,
    delta_witness,
    derive_classical,
    lattice_join,
    lattice_meet,
    replay_witness,
    star_set,
    union_gap_witness,
    verify_lattices,
)
from .verification import VerifyConfig, run_verification

__version__ = "0.1.0"

"""Litmus-test substrate: classic tests, exact enumeration, verdicts.

Validates that the relaxation-based semantics of the paper's Table 1
reproduces the architecture literature's allowed/forbidden outcomes
(experiment E11).
"""

from .checker import LitmusVerdict, check_all, check_test, outcome_to_string
from .enumerator import Outcome, enumerate_outcomes, legal_reorderings
from .generate import (
    FamilySpec,
    FamilySweepReport,
    family_digests,
    family_member,
    generate_family,
    sweep_family,
)
from .explore import (
    ConvergenceReport,
    ExhaustiveOutcomes,
    ExplorationReport,
    OutcomeFrequencies,
    assert_convergence,
    check_convergence,
    enumerator_fingerprint,
    explore_entry_key,
    explore_exhaustive,
    explore_random,
    program_digest,
)
from .robustness import (
    RobustnessReport,
    RobustnessVerdict,
    classify_robustness,
    robustness_report,
)
from .zoo import (
    PSO_WB,
    SC_NMCA,
    WO_NMCA,
    ZOO_MODELS,
    get_zoo_model,
)
from .tests import (
    ALL_TESTS,
    COHERENCE_RR,
    IRIW,
    LOAD_BUFFERING,
    MESSAGE_PASSING,
    MESSAGE_PASSING_FENCED,
    R_SHAPE,
    S_SHAPE,
    WRC,
    STORE_BUFFERING,
    STORE_BUFFERING_FENCED,
    STORE_BUFFERING_HALF_FENCED,
    TWO_PLUS_TWO_W,
    LitmusTest,
    get_test,
)

__all__ = [
    "ALL_TESTS",
    "COHERENCE_RR",
    "ConvergenceReport",
    "ExhaustiveOutcomes",
    "ExplorationReport",
    "FamilySpec",
    "FamilySweepReport",
    "IRIW",
    "LOAD_BUFFERING",
    "LitmusTest",
    "LitmusVerdict",
    "MESSAGE_PASSING",
    "MESSAGE_PASSING_FENCED",
    "Outcome",
    "OutcomeFrequencies",
    "PSO_WB",
    "R_SHAPE",
    "RobustnessReport",
    "RobustnessVerdict",
    "SC_NMCA",
    "S_SHAPE",
    "STORE_BUFFERING",
    "STORE_BUFFERING_FENCED",
    "STORE_BUFFERING_HALF_FENCED",
    "TWO_PLUS_TWO_W",
    "WO_NMCA",
    "WRC",
    "ZOO_MODELS",
    "assert_convergence",
    "check_all",
    "check_convergence",
    "check_test",
    "classify_robustness",
    "enumerate_outcomes",
    "enumerator_fingerprint",
    "explore_entry_key",
    "explore_exhaustive",
    "explore_random",
    "family_digests",
    "family_member",
    "generate_family",
    "get_test",
    "get_zoo_model",
    "legal_reorderings",
    "outcome_to_string",
    "program_digest",
    "robustness_report",
    "sweep_family",
]

"""repro — reproduction of *The Impact of Memory Models on Software
Reliability in Multiprocessors* (Jaffe, Moscibroda, Effinger-Dean, Ceze,
Strauss; PODC 2011).

The library models how hardware memory consistency models (SC, TSO, PSO,
WO) affect the probability that a canonical atomicity-violation bug
manifests, via the paper's two random processes:

* the **settling process** — randomised, model-legal instruction
  reordering that can widen the critical window between a racy load/store
  pair (:mod:`repro.core.settling`, :mod:`repro.core.window_analytic`);
* the **shift process** — geometric thread interleaving whose disjointness
  event is exactly bug *non*-manifestation (:mod:`repro.core.shift`,
  :mod:`repro.core.shift_analytic`);

joined in :mod:`repro.core.manifestation`.  A mechanistic multiprocessor
simulator (:mod:`repro.sim`) and a litmus-test kit (:mod:`repro.litmus`)
provide the execution substrate the abstract model idealises.

Quickstart
----------
>>> import repro
>>> repro.non_manifestation_probability(repro.SC).value  # Theorem 6.2
0.16666666666666666
"""

from .core import (
    ALL_PAIRS,
    PAPER_MODELS,
    PSO,
    SC,
    TSO,
    WO,
    DiscreteDistribution,
    Instruction,
    InstructionType,
    MemoryModel,
    Program,
    SettlingProcess,
    SettlingResult,
    ShiftProcess,
    ValueWithError,
    asymptotic_exponent,
    disjointness_probability,
    estimate_non_manifestation,
    estimate_non_manifestation_rao_blackwell,
    generate_program,
    get_model,
    log_non_manifestation,
    manifestation_probability,
    non_manifestation_probability,
    program_from_types,
    sample_window_growth,
    table1_rows,
    theorem_62_reference,
    tso_two_thread_bounds,
    window_distribution,
)
from .errors import (
    DistributionError,
    LitmusError,
    ModelDefinitionError,
    ProgramError,
    ReproError,
    SimulationError,
    TruncationError,
)
from .runconfig import RunConfig
from .stats import RandomSource

__version__ = "9.0.0"

__all__ = [
    "ALL_PAIRS",
    "DiscreteDistribution",
    "DistributionError",
    "Instruction",
    "InstructionType",
    "LitmusError",
    "MemoryModel",
    "ModelDefinitionError",
    "PAPER_MODELS",
    "PSO",
    "Program",
    "ProgramError",
    "RandomSource",
    "ReproError",
    "RunConfig",
    "SC",
    "SettlingProcess",
    "SettlingResult",
    "ShiftProcess",
    "SimulationError",
    "TruncationError",
    "TSO",
    "ValueWithError",
    "WO",
    "asymptotic_exponent",
    "disjointness_probability",
    "estimate_non_manifestation",
    "estimate_non_manifestation_rao_blackwell",
    "generate_program",
    "get_model",
    "log_non_manifestation",
    "manifestation_probability",
    "non_manifestation_probability",
    "program_from_types",
    "sample_window_growth",
    "table1_rows",
    "theorem_62_reference",
    "tso_two_thread_bounds",
    "window_distribution",
    "__version__",
]

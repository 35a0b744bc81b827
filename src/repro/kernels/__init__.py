"""NumPy batch kernels for the paper's stochastic processes.

The abstract models of §4–§6 (settling, shift, and their join) and the
machine substrate of §2.2 each have a *scalar* reference implementation —
one trial at a time, one random draw at a time — that defines the
semantics, and is what every closed form is validated against.  This
package provides the corresponding **vectorized kernels**: whole-array
NumPy operations that run one *batch* of trials per call on a single
``Generator``-backed child stream, typically 10–100× faster per core.

One kernel per estimator
------------------------
Each kernel-backed estimator runs exactly one kernel, so no engine knob
selects it: the joined-model, shift, multi-bug and fleet estimators run
the vectorized kernels below, and ``measure_critical_windows`` runs the
scalar machine.  ``run_canonical_bug`` is the one driver with two, and
takes ``backend="scalar"|"vectorized"`` as its own argument:

* The scalar and vectorized machines draw randomness in different stream
  orders, so they are **statistically equivalent** (same joint law), not
  bit-identical.  :func:`repro.kernels.joined.non_manifestation_batch`
  *is* the historical batch path of ``estimate_non_manifestation`` and
  keeps its published fixed-seed numbers bit-for-bit.
* Every kernel is bit-reproducible on its own terms: fixed
  ``(seed, shards)`` gives identical results at any worker count,
  because kernels consume per-shard child streams exactly like every
  other engine kernel (see ``docs/KERNELS.md``).
* A run's key folds in the kernel fingerprint, so one checkpoint
  directory or manifest file can hold both machines' runs without
  cross-talk.

The catalogue below maps each kernel to the paper artifact it simulates;
``docs/KERNELS.md`` documents the same table with the seed-discipline
contract and the one-kernel-per-estimator table.
"""

from __future__ import annotations

from .joined import non_manifestation_batch
from .machine import (
    SUPPORTED_MACHINE_MODELS,
    canonical_bug_batch,
    machine_race_batch,
)
from .settling import window_growth_batch
from .shift import sample_shifts_batch, shift_disjoint_batch

__all__ = [
    "KERNEL_CATALOGUE",
    "window_growth_batch",
    "shift_disjoint_batch",
    "sample_shifts_batch",
    "non_manifestation_batch",
    "machine_race_batch",
    "canonical_bug_batch",
    "SUPPORTED_MACHINE_MODELS",
]

#: Kernel catalogue: public kernel name -> (paper artifact, one-line summary).
#: ``docs/KERNELS.md`` documents every entry (enforced by the docs suite).
KERNEL_CATALOGUE: dict[str, tuple[str, str]] = {
    "window_growth_batch": (
        "Theorem 4.1",
        "Batch critical-window growths gamma per model (SC/WO/TSO/PSO laws).",
    ),
    "shift_disjoint_batch": (
        "Theorem 5.1 / Corollary 5.2",
        "Batch geometric-shift draws with the closed-interval disjointness count.",
    ),
    "non_manifestation_batch": (
        "Theorems 6.2 / 6.3",
        "Batch joined-model trials: shared program, settled windows, shifts, Pr[A].",
    ),
    "machine_race_batch": (
        "§2.2 canonical bug",
        "Batch cycle-accurate canonical-increment races (SC/TSO/PSO cores).",
    ),
}

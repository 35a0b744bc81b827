"""NumPy batch kernels for the paper's stochastic processes.

The abstract models of §4–§6 (settling, shift, and their join) and the
machine substrate of §2.2 each have a *scalar* reference implementation —
one trial at a time, one random draw at a time — that defines the
semantics, and is what every closed form is validated against.  This
package provides the corresponding **vectorized kernels**: whole-array
NumPy operations that run one *batch* of trials per call on a single
``Generator``-backed child stream, typically 10–100× faster per core.

Backend contract
----------------
Every kernel-backed driver (``estimate_non_manifestation``,
``run_canonical_bug``, ``measure_critical_windows``, the analysis sweeps,
and the ``--backend`` CLI flag) accepts ``backend="scalar"`` or
``backend="vectorized"``; the shift, multi-bug and fleet estimators have
no scalar kernel and reject it explicitly via
``resolve_backend(..., allowed=...)``:

* Different backends draw randomness in different stream orders, so they
  are **statistically equivalent** (same joint law), not bit-identical —
  except :func:`repro.kernels.joined.non_manifestation_batch`, which *is*
  the historical batch path of ``estimate_non_manifestation`` and keeps
  its published fixed-seed numbers bit-for-bit.
* Each backend is bit-reproducible on its own terms: fixed
  ``(seed, shards, backend)`` gives identical results at any worker
  count, because kernels consume per-shard child streams exactly like
  every other engine kernel (see ``docs/KERNELS.md``).
* Manifest/checkpoint labels are salted with the backend, so one journal
  or manifest file can hold both backends' runs without cross-talk.

The catalogue below maps each kernel to the paper artifact it simulates;
``docs/KERNELS.md`` documents the same table with the seed-discipline
contract and backend-selection guidance.
"""

from __future__ import annotations

from .joined import non_manifestation_batch, non_manifestation_scalar_batch
from .machine import (
    SUPPORTED_MACHINE_MODELS,
    canonical_bug_batch,
    machine_race_batch,
)
from .settling import trailing_run_batch, window_growth_batch
from .shift import sample_shifts_batch, shift_disjoint_batch
from .validation import (
    assert_contains_probability,
    assert_equivalent_proportions,
    equivalence_tolerance,
)

__all__ = [
    "BACKENDS",
    "resolve_backend",
    "KERNEL_CATALOGUE",
    "window_growth_batch",
    "trailing_run_batch",
    "shift_disjoint_batch",
    "sample_shifts_batch",
    "non_manifestation_batch",
    "non_manifestation_scalar_batch",
    "machine_race_batch",
    "canonical_bug_batch",
    "SUPPORTED_MACHINE_MODELS",
    "equivalence_tolerance",
    "assert_equivalent_proportions",
    "assert_contains_probability",
]

#: The recognised simulation backends.  Drivers without a scalar kernel
#: restrict their accepted subset via the ``allowed`` parameter of
#: :func:`resolve_backend`.
BACKENDS = ("scalar", "vectorized")


def resolve_backend(backend: str,
                    allowed: tuple[str, ...] | None = None) -> str:
    """Validate a backend name; returns it unchanged.

    ``allowed`` restricts the accepted subset for drivers that do not
    implement every backend (e.g. the shift estimator has no scalar
    kernel) — unknown names and known-but-unsupported names both raise,
    with messages that tell the two cases apart.

    >>> resolve_backend("vectorized")
    'vectorized'
    """
    if backend not in BACKENDS:
        known = ", ".join(BACKENDS)
        raise ValueError(f"unknown backend {backend!r}; known backends: {known}")
    if allowed is not None and backend not in allowed:
        supported = ", ".join(allowed)
        raise ValueError(
            f"backend {backend!r} is not supported here; choose one of: {supported}"
        )
    return backend


#: Kernel catalogue: public kernel name -> (paper artifact, one-line summary).
#: ``docs/KERNELS.md`` documents every entry (enforced by the docs suite).
KERNEL_CATALOGUE: dict[str, tuple[str, str]] = {
    "window_growth_batch": (
        "Theorem 4.1",
        "Batch critical-window growths gamma per model (SC/WO/TSO/PSO laws).",
    ),
    "trailing_run_batch": (
        "Lemma 4.2",
        "Batch trailing-store-run Markov chains for TSO/PSO settling.",
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

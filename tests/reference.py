"""Reference-only code the suite checks the library against.

Three pieces live here rather than in ``src/``, because no library path
runs them:

* :func:`sample_store_atomic` — the store-atomic sampled litmus walk one
  trial and one draw at a time, the loop the lockstep kernel of
  :meth:`repro.litmus.core.Machine.sample` replaced.  It draws the same
  words in the same order, so the kernel must equal it exactly: the same
  table, in the same insertion order.
* :func:`non_manifestation_scalar_batch` — the draw-by-draw §6 trial
  loop: per trial one explicit program, ``n`` reference settlings
  (:class:`repro.core.settling.SettlingProcess`) and scalar geometric
  shifts.  It defines the semantics the vectorized kernel
  :func:`repro.kernels.joined.non_manifestation_batch` must reproduce
  statistically; it draws in a different stream order, so its
  fixed-seed numbers differ.
* the two-sample equivalence harness.  A reference loop and a
  vectorized kernel draw randomness in different stream orders, so
  their fixed-seed outputs differ bit-for-bit while sampling the same
  law.  The correctness claim is therefore *statistical*: two
  independent samples of the same Bernoulli event must produce
  proportions whose gap is explained by sampling noise.
  :func:`equivalence_tolerance` is the half-width of the two-sample
  normal test for the difference of proportions at the given
  confidence — at the suite's default 0.999 a true-null test flakes
  about once per thousand runs per assertion, and any systematic
  semantic divergence larger than the tolerance fails deterministically
  as trial counts grow.

The module is not collected as a test file; the benchmarks import it as
``tests.reference``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.instructions import generate_program
from repro.core.memory_models import MemoryModel
from repro.core.settling import SettlingProcess
from repro.core.shift import segments_disjoint
from repro.litmus.core import BlockReader, Machine
from repro.stats.intervals import normal_quantile, wilson_interval
from repro.stats.rng import RandomSource

__all__ = [
    "sample_store_atomic",
    "non_manifestation_scalar_batch",
    "equivalence_tolerance",
    "assert_equivalent_proportions",
    "assert_contains_probability",
]


def sample_store_atomic(machine: Machine, source, trials: int) -> dict:
    """``trials`` store-atomic sampled executions, one draw at a time.

    Per trial: one legal order per thread, drawn by rank (no draw when a
    thread has one), then the next thread drawn in proportion to its
    remaining operations until every operation has run, each one run by
    :meth:`~repro.litmus.core.Machine.step`.  Outcomes are tallied in
    the order they are first seen.
    """
    if not machine.atomic:
        raise ValueError("the reference walks atomic stores only")
    orders = machine.orders()
    below = BlockReader(source.generator).below
    counts: dict = {}
    for _ in range(trials):
        threads = [choices[below(len(choices))] for choices in orders]
        views, channels, registers = machine.start()
        pcs = [0] * machine.n
        remaining = [len(thread) for thread in threads]
        total = sum(remaining)
        while total:
            pick = below(total)
            index = 0
            while pick >= remaining[index]:
                pick -= remaining[index]
                index += 1
            machine.step(views, channels, registers, index,
                         machine.ops[index][threads[index][pcs[index]]])
            pcs[index] += 1
            remaining[index] -= 1
            total -= 1
        outcome = machine.outcome(views, registers)
        counts[outcome] = counts.get(outcome, 0) + 1
    return counts


def non_manifestation_scalar_batch(
    source: RandomSource,
    batch: int,
    model: MemoryModel,
    n: int,
    store_probability: float,
    beta: float,
    body_length: int,
    critical_section_length: int,
) -> int:
    """The scalar reference §6 trial loop (one draw at a time).

    Per trial: one shared program (§6's "identical copies of a single
    program"), ``n`` independent reference settlings, ``n`` scalar
    geometric shifts, and the closed-interval disjointness check.
    """
    process = SettlingProcess(model)
    successes = 0
    for _ in range(batch):
        program = generate_program(body_length, source, store_probability)
        lengths = np.empty(n, dtype=np.int64)
        for thread in range(n):
            growth = process.settle(program, source).window_growth
            lengths[thread] = growth + critical_section_length
        shifts = np.array([source.geometric(beta) for _ in range(n)],
                          dtype=np.int64)
        successes += segments_disjoint(shifts, lengths)
    return int(successes)


#: Per-assertion confidence used by the suite's equivalence tests: tight
#: enough to catch semantic drift, loose enough (≈1/1000 false-positive
#: rate per assertion) not to flake CI.
DEFAULT_EQUIVALENCE_CONFIDENCE = 0.999


def equivalence_tolerance(
    successes_a: int,
    trials_a: int,
    successes_b: int,
    trials_b: int,
    confidence: float = DEFAULT_EQUIVALENCE_CONFIDENCE,
) -> float:
    """Allowed |p̂_a − p̂_b| for two same-law Bernoulli samples.

    The two-sample z half-width with the pooled variance estimate, plus
    the two discretisation quanta ``1/trials`` (a one-count difference
    must never fail on its own at tiny sample sizes).
    """
    _check(successes_a, trials_a)
    _check(successes_b, trials_b)
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    pooled = (successes_a + successes_b) / (trials_a + trials_b)
    variance = pooled * (1.0 - pooled) * (1.0 / trials_a + 1.0 / trials_b)
    z = normal_quantile(0.5 + confidence / 2.0)
    return z * math.sqrt(variance) + 1.0 / trials_a + 1.0 / trials_b


def assert_equivalent_proportions(
    successes_a: int,
    trials_a: int,
    successes_b: int,
    trials_b: int,
    confidence: float = DEFAULT_EQUIVALENCE_CONFIDENCE,
    context: str = "",
) -> None:
    """Assert two Bernoulli samples are consistent with one shared p.

    Raises ``AssertionError`` with both proportions, the gap and the
    tolerance when the two-sample test rejects at ``confidence``.
    """
    p_a = successes_a / trials_a
    p_b = successes_b / trials_b
    tolerance = equivalence_tolerance(
        successes_a, trials_a, successes_b, trials_b, confidence
    )
    gap = abs(p_a - p_b)
    label = f" [{context}]" if context else ""
    assert gap <= tolerance, (
        f"proportions diverge{label}: "
        f"{p_a:.6f} ({successes_a}/{trials_a}) vs "
        f"{p_b:.6f} ({successes_b}/{trials_b}); "
        f"gap {gap:.6f} > tolerance {tolerance:.6f} @ {confidence}"
    )


def assert_contains_probability(
    successes: int,
    trials: int,
    probability: float,
    confidence: float = DEFAULT_EQUIVALENCE_CONFIDENCE,
    context: str = "",
) -> None:
    """Assert a closed-form probability lies in the sample's Wilson CI."""
    interval = wilson_interval(successes, trials, confidence)
    label = f" [{context}]" if context else ""
    assert interval.contains(probability), (
        f"closed form outside Monte-Carlo interval{label}: "
        f"expected {probability:.6f}, observed {interval}"
    )


def _check(successes: int, trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")

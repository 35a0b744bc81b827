"""Sequential Monte-Carlo estimation to a target precision.

The fixed-trial harness of :mod:`repro.stats.montecarlo` is right when the
budget is known; exploratory work usually wants the dual: *"estimate this
probability to ±0.001 and stop"*.  :func:`estimate_to_precision` runs
batches until the Wilson interval's half-width reaches the target (or a
trial cap), growing the batch size geometrically so the overhead of the
early, uninformative batches stays negligible.

The stopping rule peeks at the interval repeatedly, which inflates the
nominal miss rate by a modest factor (law-of-the-iterated-logarithm
territory); for the library's use — sizing experiments, not hypothesis
testing — this is the standard, documented trade-off.
"""

from __future__ import annotations

from collections.abc import Callable

from .intervals import wilson_interval
from .montecarlo import BernoulliResult
from .rng import RandomSource

__all__ = ["estimate_to_precision"]


def estimate_to_precision(
    batch_trial: Callable[[RandomSource, int], int],
    half_width: float,
    seed: int | None = 0,
    confidence: float = 0.99,
    initial_batch: int = 1024,
    growth: float = 2.0,
    max_trials: int = 50_000_000,
) -> BernoulliResult:
    """Run batches of ``batch_trial`` until the interval is tight enough.

    Parameters
    ----------
    batch_trial:
        ``(source, size) -> successes`` — the same vectorised contract as
        :func:`repro.stats.montecarlo.run_event_trials`.
    half_width:
        Target half-width of the Wilson interval.
    initial_batch, growth:
        First batch size and the geometric growth factor between batches.
    max_trials:
        Hard cap; the result is returned (with its wider interval) when
        reached.

    >>> from repro.stats import RandomSource
    >>> result = estimate_to_precision(
    ...     lambda source, size: int(source.bernoulli_array(0.5, size).sum()),
    ...     half_width=0.02,
    ... )
    >>> result.proportion.half_width <= 0.02
    True
    """
    if half_width <= 0.0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    if initial_batch < 1:
        raise ValueError(f"initial_batch must be >= 1, got {initial_batch}")
    if growth < 1.0:
        raise ValueError(f"growth must be >= 1, got {growth}")

    root = RandomSource(seed)
    successes = 0
    trials = 0
    batch = initial_batch
    while True:
        step = min(batch, max_trials - trials)
        if step <= 0:
            break
        successes += int(batch_trial(root.child(), step))
        trials += step
        interval = wilson_interval(successes, trials, confidence)
        if interval.half_width <= half_width:
            break
        batch = int(batch * growth)
    return BernoulliResult(successes, trials, confidence, seed)

"""Parameter sweeps over the joined model.

The benches and examples repeatedly evaluate ``Pr[A]`` / ``Pr[bug]`` over
grids of thread counts, settle probabilities and store probabilities; this
module centralises those loops and returns plain row dicts ready for the
reporting layer.

Every sweep takes a keyword-only ``config=``
:class:`~repro.runconfig.RunConfig`: grid points are independent, so
they dispatch onto the shared process-pool engine
(:func:`repro.stats.parallel.parallel_map`) with the config's
workers/retries/timeout and come back in grid order — ``workers=1``
(the default) is the plain serial loop, and the row values are identical
either way because each point is a deterministic analytic evaluation.
The observability knobs observe the sweep as one run whose shards are
its grid points (``progress`` shows a live per-point line; see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from functools import partial

from ..core.manifestation import (
    estimate_non_manifestation,
    log_non_manifestation,
    non_manifestation_probability,
)
from ..core.memory_models import PAPER_MODELS, MemoryModel
from ..core.window_analytic import window_distribution
from ..obs import observed_run
from ..runconfig import RunConfig
from ..stats.faults import pool_scope
from ..stats.parallel import parallel_map


def _sweep(row: Callable[..., dict[str, object]], items: Sequence,
           config: RunConfig | None, label: str) -> list[dict[str, object]]:
    """One row per grid point, dispatched onto ``parallel_map``."""
    cfg = (config or RunConfig()).resolve()
    return observed_run(cfg, label, lambda observer: parallel_map(
        row, items, observer=observer, config=cfg))


__all__ = ["thread_sweep", "settle_sweep", "store_probability_sweep", "window_pmf_table", "critical_section_sweep", "beta_sweep"]


def _thread_sweep_row(
    n: int,
    models: Sequence[MemoryModel],
    store_probability: float,
    beta: float,
) -> dict[str, object]:
    row: dict[str, object] = {"n": n}
    for model in models:
        row[f"ln Pr[A] {model.name}"] = log_non_manifestation(
            model, n, store_probability, beta, allow_independent_approximation=True
        )
    return row


def thread_sweep(
    thread_counts: Sequence[int],
    models: Iterable[MemoryModel] = PAPER_MODELS,
    store_probability: float = 0.5,
    beta: float = 0.5,
    *,
    config: RunConfig | None = None,
) -> list[dict[str, object]]:
    """``ln Pr[A]`` per model over thread counts (Theorem 6.3's curve).

    Uses the analytic/iid route (exact for SC/WO, independent-window
    approximation for TSO/PSO — adequate for the asymptotic claim, whose
    leading term Claim B.2 makes model-independent anyway).
    """
    row = partial(_thread_sweep_row, models=list(models),
                  store_probability=store_probability, beta=beta)
    return _sweep(row, thread_counts, config, "thread-sweep")


def _settle_sweep_row(
    settle: float,
    models: Sequence[MemoryModel],
    n: int,
    store_probability: float,
    beta: float,
) -> dict[str, object]:
    row: dict[str, object] = {"s": settle}
    for model in models:
        adjusted = model.with_settle_probability(settle)
        value = non_manifestation_probability(
            adjusted, n, store_probability, beta, allow_independent_approximation=True
        )
        row[f"Pr[bug] {model.name}"] = 1.0 - value.value
    return row


def settle_sweep(
    settle_probabilities: Sequence[float],
    models: Iterable[MemoryModel] = PAPER_MODELS,
    n: int = 2,
    store_probability: float = 0.5,
    beta: float = 0.5,
    *,
    config: RunConfig | None = None,
) -> list[dict[str, object]]:
    """n-thread ``Pr[bug]`` as the swap-success probability ``s`` varies.

    Generalises the paper's fixed ``s = 1/2``: at ``s → 0`` every model
    degenerates to SC; growing ``s`` separates them.
    """
    row = partial(_settle_sweep_row, models=list(models), n=n,
                  store_probability=store_probability, beta=beta)
    return _sweep(row, settle_probabilities, config, "settle-sweep")


def _store_probability_sweep_row(
    p: float,
    models: Sequence[MemoryModel],
    n: int,
    beta: float,
) -> dict[str, object]:
    row: dict[str, object] = {"p": p}
    for model in models:
        value = non_manifestation_probability(
            model, n, p, beta, allow_independent_approximation=True
        )
        row[f"Pr[bug] {model.name}"] = 1.0 - value.value
    return row


def store_probability_sweep(
    store_probabilities: Sequence[float],
    models: Iterable[MemoryModel] = PAPER_MODELS,
    n: int = 2,
    beta: float = 0.5,
    *,
    config: RunConfig | None = None,
) -> list[dict[str, object]]:
    """n-thread ``Pr[bug]`` as the program's store fraction ``p`` varies.

    Only TSO/PSO depend on ``p`` (their windows grow through store runs);
    SC and WO columns are flat, which the sweep makes visible.
    """
    row = partial(_store_probability_sweep_row, models=list(models), n=n, beta=beta)
    return _sweep(row, store_probabilities, config, "store-probability-sweep")


def window_pmf_table(
    gammas: Sequence[int],
    models: Iterable[MemoryModel] = PAPER_MODELS,
    store_probability: float = 0.5,
) -> list[dict[str, object]]:
    """Theorem 4.1 as a table: ``Pr[B_γ]`` per model over γ."""
    distributions = {model.name: window_distribution(model, store_probability) for model in models}
    rows = []
    for gamma in gammas:
        row: dict[str, object] = {"gamma": gamma}
        for name, dist in distributions.items():
            row[f"Pr[B] {name}"] = dist.pmf(gamma)
        rows.append(row)
    return rows


def _critical_section_sweep_row(
    length: int,
    models: Sequence[MemoryModel],
    n: int,
    beta: float,
) -> dict[str, object]:
    row: dict[str, object] = {"L": length}
    values = {}
    for model in models:
        value = non_manifestation_probability(
            model,
            n,
            beta=beta,
            allow_independent_approximation=True,
            critical_section_length=length,
        ).value
        values[model.name] = value
        row[f"Pr[A] {model.name}"] = value
    if "SC" in values and "WO" in values and values["WO"] > 0:
        row["SC/WO ratio"] = values["SC"] / values["WO"]
    return row


def critical_section_sweep(
    lengths: Sequence[int],
    models: Iterable[MemoryModel] = PAPER_MODELS,
    n: int = 2,
    beta: float = 0.5,
    *,
    config: RunConfig | None = None,
) -> list[dict[str, object]]:
    """``Pr[A]`` as the base critical-section duration L grows.

    An analytically clean null result: L multiplies every Theorem 6.1
    factor by ``β^{i(L-2)}`` regardless of the window law, so absolute
    risk explodes with L while every model-vs-model *ratio* is exactly
    invariant — the memory-model comparison is independent of how much
    local work sits inside the critical section.  The sweep's rows make
    both halves visible (each row carries the SC/WO ratio).
    """
    row = partial(_critical_section_sweep_row, models=list(models), n=n, beta=beta)
    return _sweep(row, lengths, config, "critical-section-sweep")


def _beta_sweep_row(
    beta: float,
    models: Sequence[MemoryModel],
    n: int,
    store_probability: float,
) -> dict[str, object]:
    row: dict[str, object] = {"beta": beta}
    values = {}
    for model in models:
        value = non_manifestation_probability(
            model, n, store_probability, beta,
            allow_independent_approximation=True,
        ).value
        values[model.name] = value
        row[f"Pr[A] {model.name}"] = value
    if "SC" in values and "WO" in values and values["WO"] > 0:
        row["SC/WO ratio"] = values["SC"] / values["WO"]
    return row


def beta_sweep(
    betas: Sequence[float],
    models: Iterable[MemoryModel] = PAPER_MODELS,
    n: int = 2,
    store_probability: float = 0.5,
    *,
    config: RunConfig | None = None,
) -> list[dict[str, object]]:
    """``Pr[A]`` as the shift-distribution ratio β varies (§7 robustness).

    The paper conjectures its conclusions are robust to the model's
    constants; β controls how spread the thread launch offsets are.
    Small β (tight synchronisation) makes overlap — and thus the bug —
    near-certain for every model; large β (heavy-tailed desynchronisation)
    helps all models while preserving their ordering.
    """
    row = partial(_beta_sweep_row, models=list(models), n=n,
                  store_probability=store_probability)
    return _sweep(row, betas, config, "beta-sweep")


def monte_carlo_check(
    models: Iterable[MemoryModel],
    n: int,
    trials: int,
    seed: int | None = 0,
    *,
    config: RunConfig | None = None,
) -> list[dict[str, object]]:
    """Analytic vs Monte-Carlo ``Pr[A]`` rows for the verification benches.

    The Monte-Carlo leg forwards one
    :class:`~repro.runconfig.RunConfig` — ``workers``/``shards``, the
    fault-tolerance options (``retries``/``timeout``/``checkpoint``), the
    result cache (``cache`` — overlapping sweep points and re-runs fetch
    completed shards instead of recomputing them, see ``docs/CACHING.md``),
    the observability options (``manifest``/``trace``/``progress``), and
    the ``transport`` engine knob —
    to :func:`repro.core.manifestation.estimate_non_manifestation`; the
    per-model checkpoint keys keep one journal file safe across the whole
    model loop, and each model's run appends its own labelled record to
    the shared manifest file.  ``seed`` and the knob types follow the
    estimators exactly (``seed=None`` draws fresh entropy).  The models
    share one process pool (:func:`~repro.stats.faults.pool_scope`).
    """
    rows = []
    with pool_scope():
        for model in models:
            analytic = non_manifestation_probability(
                model, n, allow_independent_approximation=True
            )
            empirical = estimate_non_manifestation(
                model, n, trials, seed=seed, config=config,
            )
            rows.append(
                {
                    "model": model.name,
                    "analytic": analytic.value,
                    "monte carlo": empirical.estimate,
                    "CI low": empirical.proportion.low,
                    "CI high": empirical.proportion.high,
                    "agrees": empirical.agrees_with(analytic.value),
                }
            )
    return rows


__all__.append("monte_carlo_check")

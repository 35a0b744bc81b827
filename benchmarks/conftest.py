"""Shared helpers for the benchmark harness.

Every bench module regenerates one paper artifact (see
``repro.reporting.EXPERIMENTS``), prints the paper-vs-measured rows, and
asserts the *shape* of the result (who wins, by roughly what factor).
Timing is captured via pytest-benchmark; the heavy Monte-Carlo benches use
``benchmark.pedantic`` with a single round so the experiment itself is run
once and timed, not repeated dozens of times.

Because pytest captures stdout on passing tests, every ``show()`` call
also appends to ``benchmarks/latest_results.txt`` — after a bench run that
file holds all regenerated tables and figures (run with ``-s`` to watch
them live instead).
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

#: All rendered tables/figures from the most recent bench run.
RESULTS_PATH = Path(__file__).resolve().parent / "latest_results.txt"

#: Where committed BENCH_*.json baselines live (the repo root).
BASELINE_DIR = Path(__file__).resolve().parent.parent


def smoke_mode() -> bool:
    """True when ``REPRO_BENCH_SMOKE`` is set (CI's bench-smoke job).

    Smoke mode shrinks trial budgets so every bench exercises its full
    code path in seconds.  Result files are still written (normally to
    ``REPRO_BENCH_DIR``) so ``check_regression.py`` can compare the
    tracked ratio metrics against the committed baselines.
    """
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def scaled(full: int, smoke: int) -> int:
    """Pick the full-run or smoke-run budget for the current mode."""
    return smoke if smoke_mode() else full


def results_path(name: str) -> Path:
    """Resolve where ``BENCH_<name>.json`` should be written.

    ``REPRO_BENCH_DIR`` redirects output (CI smoke runs write to a
    scratch directory so the committed baselines are never clobbered);
    unset, results land next to the committed baselines in the repo root.
    """
    override = os.environ.get("REPRO_BENCH_DIR")
    base = Path(override) if override else BASELINE_DIR
    base.mkdir(parents=True, exist_ok=True)
    return base / f"BENCH_{name}.json"


def pytest_sessionstart(session):
    """Start each bench run with a fresh results artifact."""
    try:
        RESULTS_PATH.write_text("", encoding="utf-8")
    except OSError:  # pragma: no cover - read-only checkouts still bench fine
        pass


@pytest.fixture
def run_once(benchmark):
    """Benchmark a callable with exactly one timed execution."""

    def runner(function, *args, **kwargs):
        return benchmark.pedantic(function, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return runner


def show(text: str) -> None:
    """Print a rendered table/figure and persist it to the results file."""
    print()
    print(text)
    try:
        with RESULTS_PATH.open("a", encoding="utf-8") as handle:
            handle.write("\n" + text + "\n")
    except OSError:  # pragma: no cover
        pass


def interleaved_best(legs: dict, rounds: int) -> dict:
    """Time every leg ``rounds`` times, in turn, and keep each one's best.

    ``legs`` maps a name to ``runner(round_index) -> result``.  One
    untimed call of the first leg warms the process first (lazy imports,
    a ``pool_scope`` pool), so no leg pays for it.  Timing the legs in
    turn, round by round, spreads host drift over all of them instead of
    the one that happened to run during it; each round starts one leg
    later than the one before, so no leg always follows the same one.
    The minimum is the noise-robust estimator for overhead ratios
    (scheduling hiccups only ever add).  Returns
    ``{name: (best_seconds, last_result)}``.
    """
    names = list(legs)
    legs[names[0]](-1)
    best = {name: float("inf") for name in names}
    results = {}
    for index in range(rounds):
        shift = index % len(names)
        for name in names[shift:] + names[:shift]:
            start = time.perf_counter()
            results[name] = legs[name](index)
            best[name] = min(best[name], time.perf_counter() - start)
    return {name: (best[name], results[name]) for name in names}

#!/usr/bin/env python3
"""Nightly deep cross-check: 10^6-trial vectorized Thm 6.2/6.3 validation.

CI's per-commit suites keep trial budgets small; statistical bugs that
hide inside wide confidence intervals only surface at depth.  This
script — run by the scheduled nightly workflow — drives the **vectorized
backend** of :func:`repro.core.estimate_non_manifestation` at a deep
trial budget (default 10^6) and asserts the paper's closed-form
Theorem 6.2 values at every memory model:

* **SC** — the 0.999 CI must contain ``1/6``;
* **WO** — the CI must contain ``7/54``;
* **TSO** — the CI must intersect the paper's bracket
  ``(58/441, 58/441 + 1/189)``;
* **PSO** — the CI must contain the library's exact n = 2 derivation
  (:func:`repro.core.non_manifestation_probability`, the Footnote 4
  extension).

It then checks the Theorem 6.3 regime: a deep n = 3 TSO run whose
manifestation CI must intersect the rigorous Bonferroni brackets of
:func:`repro.core.manifestation_bounds` (exact even for the dependent
TSO fleet).  Exit status is non-zero on any violation, so the nightly
job fails loudly.

The full bracket set runs once per RNG plan (``spawn``, then
``philox``): the counter-based Philox plan draws different streams from
the same seed, so the closed forms are the only cross-plan referee — a
plan whose deep CIs drift off the paper's brackets is a sampling bug no
fixed-seed regression test can see.  ``--rng-plans`` restricts the list.

It finishes with the litmus convergence sweep: the pseudorandom
exploration engine (:mod:`repro.litmus.explore`) samples each classic
test (SB/MP/LB/IRIW) under all four models at depth
(``--litmus-trials``, default 10^5) per RNG plan, and every frequency
table must be **contained** in the exhaustively enumerated outcome set
with **full support** (every allowed outcome observed).  When both
plans run, each (test, model) pair's spawn and philox tables are also
z-tested for equivalence outcome by outcome — the two plans sample the
same law from different streams, so a divergence is a sampler bug.

Last, the generated-family sweep (``--family-trials``): a pinned-seed
family (:mod:`repro.litmus.generate`) is sampled at depth under the
**full model zoo** — algebraic, write-buffered, and non-multicopy-atomic
models alike — and every table must be contained in its model's
enumerated set, with the same cross-plan z-equivalence referee.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.core import (
    PSO,
    SC,
    TSO,
    WO,
    estimate_non_manifestation,
    manifestation_bounds,
    non_manifestation_probability,
    tso_two_thread_bounds,
)
from repro.runconfig import RunConfig
from repro.stats.intervals import wilson_interval

#: Nightly runs are one-sided gates, so use a conservative coverage:
#: a false alarm every ~1000 nights per check is acceptable noise.
CONFIDENCE = 0.999

#: The litmus sweep's cross-plan z-tests run per outcome (~100 z-tests
#: a night), so their per-test confidence is tighter to keep the whole
#: sweep's false-alarm rate around one per thousand nights.
LITMUS_CONFIDENCE = 0.99999

#: The litmus convergence sweep's program battery: the four classics.
LITMUS_CLASSICS = ("SB", "MP", "LB", "IRIW")


def check(name: str, ok: bool, detail: str, failures: list[str]) -> None:
    verdict = "OK  " if ok else "FAIL"
    print(f"[nightly] {verdict} {name}: {detail}")
    if not ok:
        failures.append(f"{name}: {detail}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=1_000_000,
                        help="Monte-Carlo trials per check (default 10^6)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int,
                        default=min(4, os.cpu_count() or 1))
    parser.add_argument("--rng-plans", nargs="+", default=["spawn", "philox"],
                        choices=["spawn", "philox"],
                        help="RNG plans to run the full bracket set under "
                             "(default: both)")
    parser.add_argument("--litmus-trials", type=int, default=100_000,
                        help="samples per (test, model, plan) in the litmus "
                             "convergence sweep (default 10^5; 0 skips it)")
    parser.add_argument("--family-trials", type=int, default=50_000,
                        help="samples per (member, model, plan) in the "
                             "generated-family convergence sweep across the "
                             "zoo (default 5*10^4; 0 skips it)")
    parser.add_argument("--family-seed", type=int, default=20_240,
                        help="pinned generator seed of the nightly family")
    options = parser.parse_args(argv)

    failures: list[str] = []
    start = time.perf_counter()

    def run_brackets(rng_plan: str) -> None:
        tag = "" if rng_plan == "spawn" else f"-{rng_plan}"

        def estimate(model, n: int):
            return estimate_non_manifestation(
                model, n, options.trials, seed=options.seed,
                confidence=CONFIDENCE,
                config=RunConfig(workers=options.workers, backend="vectorized",
                                 rng_plan=rng_plan),
            )

        # --- Theorem 6.2: n = 2, all four models ---------------------
        sc = estimate(SC, 2).proportion
        check(f"thm62{tag}/SC", sc.contains(1.0 / 6.0),
              f"CI [{sc.low:.5f}, {sc.high:.5f}] vs exact 1/6 = {1 / 6:.5f}",
              failures)

        wo = estimate(WO, 2).proportion
        check(f"thm62{tag}/WO", wo.contains(7.0 / 54.0),
              f"CI [{wo.low:.5f}, {wo.high:.5f}] vs exact 7/54 = {7 / 54:.5f}",
              failures)

        tso = estimate(TSO, 2).proportion
        tso_low, tso_high = tso_two_thread_bounds()
        check(f"thm62{tag}/TSO",
              tso.low <= tso_high and tso.high >= tso_low,
              f"CI [{tso.low:.5f}, {tso.high:.5f}] vs paper bracket "
              f"({tso_low:.5f}, {tso_high:.5f})",
              failures)

        pso = estimate(PSO, 2).proportion
        pso_exact = non_manifestation_probability(PSO, 2).value
        check(f"thm62{tag}/PSO", pso.contains(pso_exact),
              f"CI [{pso.low:.5f}, {pso.high:.5f}] vs derived {pso_exact:.5f}",
              failures)

        # --- Theorem 6.3 regime: n = 3 TSO vs Bonferroni brackets ----
        deep = estimate(TSO, 3)
        manifested = wilson_interval(deep.trials - deep.successes,
                                     deep.trials, CONFIDENCE)
        bound_low, bound_high = manifestation_bounds(TSO, 3)
        check(f"thm63{tag}/TSO-n3",
              manifested.low <= bound_high and manifested.high >= bound_low,
              f"manifestation CI [{manifested.low:.5f}, "
              f"{manifested.high:.5f}] "
              f"vs Bonferroni [{bound_low:.5f}, {bound_high:.5f}]",
              failures)

    def run_litmus_sweep() -> None:
        from repro.core.memory_models import PAPER_MODELS
        from repro.litmus import (
            assert_frequencies_equivalent,
            check_convergence,
            explore_random,
        )

        for test in LITMUS_CLASSICS:
            for model in PAPER_MODELS:
                tables = {}
                for rng_plan in options.rng_plans:
                    config = RunConfig(workers=options.workers,
                                       rng_plan=rng_plan)
                    table = explore_random(test, model, options.litmus_trials,
                                           seed=options.seed, config=config)
                    report = check_convergence(table)
                    check(f"litmus-{rng_plan}/{test}-{model.name}",
                          report.converged,
                          f"{len(report.sampled)}/{len(report.enumerated)} "
                          f"enumerated outcomes sampled, "
                          f"{len(report.escaped)} escaped, "
                          f"coverage {report.coverage:.3f}",
                          failures)
                    tables[rng_plan] = table
                if len(tables) == 2:
                    try:
                        assert_frequencies_equivalent(
                            tables["spawn"], tables["philox"],
                            confidence=LITMUS_CONFIDENCE)
                    except AssertionError as error:
                        detail = str(error).splitlines()[0]
                        check(f"litmus-xplan/{test}-{model.name}", False,
                              detail, failures)
                    else:
                        check(f"litmus-xplan/{test}-{model.name}", True,
                              "spawn and philox tables z-equivalent "
                              f"@ {LITMUS_CONFIDENCE}", failures)

    def run_family_sweep() -> None:
        from repro.litmus import (
            FamilySpec,
            ZOO_MODELS,
            assert_convergence,
            assert_frequencies_equivalent,
            explore_random,
            generate_family,
        )

        # A pinned-seed family: generation is a pure function of
        # (spec, seed, index), so tonight's programs are last night's —
        # drift in the sweep is sampler or semantics drift, not input
        # noise.  Spacing and fences exercise the generator knobs; the
        # zoo covers algebraic, operational-buffer, and non-atomic
        # models in one pass.
        spec = FamilySpec(threads=2, ops_per_thread=5, addresses=2,
                          spacing=1, fence_density=0.25)
        members = generate_family(spec, 2, seed=options.family_seed)
        for index, member in enumerate(members):
            for model in ZOO_MODELS:
                tables = {}
                for rng_plan in options.rng_plans:
                    config = RunConfig(workers=options.workers,
                                       rng_plan=rng_plan)
                    table = explore_random(member, model,
                                           options.family_trials,
                                           seed=options.family_seed,
                                           config=config)
                    name = f"family-{rng_plan}/m{index}-{model.name}"
                    try:
                        report = assert_convergence(table, test=member,
                                                    model=model)
                    except Exception as error:  # escaped outcome = bug
                        check(name, False, str(error).splitlines()[0],
                              failures)
                        continue
                    check(name, report.contained,
                          f"{len(report.sampled)}/{len(report.enumerated)} "
                          f"enumerated outcomes sampled, coverage "
                          f"{report.coverage:.3f}",
                          failures)
                    tables[rng_plan] = table
                if len(tables) == 2:
                    try:
                        assert_frequencies_equivalent(
                            tables["spawn"], tables["philox"],
                            confidence=LITMUS_CONFIDENCE)
                    except AssertionError as error:
                        detail = str(error).splitlines()[0]
                        check(f"family-xplan/m{index}-{model.name}", False,
                              detail, failures)
                    else:
                        check(f"family-xplan/m{index}-{model.name}", True,
                              "spawn and philox tables z-equivalent "
                              f"@ {LITMUS_CONFIDENCE}", failures)

    for rng_plan in options.rng_plans:
        run_brackets(rng_plan)
    if options.litmus_trials > 0:
        run_litmus_sweep()
    if options.family_trials > 0:
        run_family_sweep()

    elapsed = time.perf_counter() - start
    print(f"[nightly] {options.trials} trials/check, seed {options.seed}, "
          f"{options.workers} worker(s), "
          f"plans {'+'.join(options.rng_plans)}, "
          f"litmus depth {options.litmus_trials}, "
          f"family depth {options.family_trials}, {elapsed:.1f}s total")
    if failures:
        print(f"[nightly] {len(failures)} deep check(s) failed:",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("[nightly] all deep closed-form checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Nightly deep cross-check: 10^6-trial vectorized Thm 6.2/6.3 validation.

CI's per-commit suites keep trial budgets small; statistical bugs that
hide inside wide confidence intervals only surface at depth.  This
script — run by the scheduled nightly workflow — drives the **vectorized
kernel** of :func:`repro.core.estimate_non_manifestation` at a deep
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

It finishes with the litmus convergence sweep: the pseudorandom
exploration engine (:mod:`repro.litmus.explore`) samples each classic
test (SB/MP/LB/IRIW) under all four models at depth
(``--litmus-trials``, default 10^5), and every frequency table must be
**contained** in the exhaustively enumerated outcome set with **full
support** (every allowed outcome observed).  Each table must also pass
a χ² test against the sampled walk's exact outcome law (the oracle of
``tests/test_litmus_law.py``): containment and coverage cannot see a
sampler that reaches the right outcomes with the wrong probabilities.

Last, the generated-family sweep (``--family-trials``): a pinned-seed
family (:mod:`repro.litmus.generate`), plus the fenced 3-thread member
tier 1 checks under two models only, is sampled at depth under the
**full model zoo** — algebraic, write-buffered, and non-multicopy-atomic
models alike — and every table must be contained in its model's
enumerated set and pass the same exact-law χ² test.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

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

#: The exact-law χ² tests run per (program, model) point (37 a night),
#: so their per-test threshold is tighter to keep the whole sweep's
#: false-alarm rate near one per thousand nights.  A sampler that picks
#: the next thread uniformly instead of by remaining operations scores
#: p < 1e-200 even at the tier-1 depth of 2*10^4 samples.
LITMUS_MIN_P = 1e-5

#: The litmus convergence sweep's program battery: the four classics.
LITMUS_CLASSICS = ("SB", "MP", "LB", "IRIW")

#: The exact-law oracle lives with the tier-1 tests, under the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


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
    parser.add_argument("--litmus-trials", type=int, default=100_000,
                        help="samples per (test, model) in the litmus "
                             "convergence sweep (default 10^5; 0 skips it)")
    parser.add_argument("--family-trials", type=int, default=50_000,
                        help="samples per (member, model) in the "
                             "generated-family convergence sweep across the "
                             "zoo (default 5*10^4; 0 skips it)")
    parser.add_argument("--family-seed", type=int, default=20_240,
                        help="pinned generator seed of the nightly family")
    options = parser.parse_args(argv)

    failures: list[str] = []
    start = time.perf_counter()

    def estimate(model, n: int):
        return estimate_non_manifestation(
            model, n, options.trials, seed=options.seed,
            confidence=CONFIDENCE,
            config=RunConfig(workers=options.workers),
        )

    def run_brackets() -> None:
        # --- Theorem 6.2: n = 2, all four models ---------------------
        sc = estimate(SC, 2).proportion
        check("thm62/SC", sc.contains(1.0 / 6.0),
              f"CI [{sc.low:.5f}, {sc.high:.5f}] vs exact 1/6 = {1 / 6:.5f}",
              failures)

        wo = estimate(WO, 2).proportion
        check("thm62/WO", wo.contains(7.0 / 54.0),
              f"CI [{wo.low:.5f}, {wo.high:.5f}] vs exact 7/54 = {7 / 54:.5f}",
              failures)

        tso = estimate(TSO, 2).proportion
        tso_low, tso_high = tso_two_thread_bounds()
        check("thm62/TSO",
              tso.low <= tso_high and tso.high >= tso_low,
              f"CI [{tso.low:.5f}, {tso.high:.5f}] vs paper bracket "
              f"({tso_low:.5f}, {tso_high:.5f})",
              failures)

        pso = estimate(PSO, 2).proportion
        pso_exact = non_manifestation_probability(PSO, 2).value
        check("thm62/PSO", pso.contains(pso_exact),
              f"CI [{pso.low:.5f}, {pso.high:.5f}] vs derived {pso_exact:.5f}",
              failures)

        # --- Theorem 6.3 regime: n = 3 TSO vs Bonferroni brackets ----
        deep = estimate(TSO, 3)
        manifested = wilson_interval(deep.trials - deep.successes,
                                     deep.trials, CONFIDENCE)
        bound_low, bound_high = manifestation_bounds(TSO, 3)
        check("thm63/TSO-n3",
              manifested.low <= bound_high and manifested.high >= bound_low,
              f"manifestation CI [{manifested.low:.5f}, "
              f"{manifested.high:.5f}] "
              f"vs Bonferroni [{bound_low:.5f}, {bound_high:.5f}]",
              failures)

    def check_law(name: str, table, test, model) -> None:
        from tests.test_litmus_law import law_p_value, outcome_law

        started = time.perf_counter()
        law = outcome_law(test, model)
        seconds = time.perf_counter() - started
        ok = sum(law.values()) == 1
        try:
            p_value = law_p_value(table, law) if ok else 0.0
        except AssertionError as error:  # a sampled outcome outside the law
            check(name, False, str(error).splitlines()[0], failures)
            return
        check(name, ok and p_value >= LITMUS_MIN_P,
              f"chi2 p = {p_value:.3g} vs {LITMUS_MIN_P:g} over "
              f"{len(law)} outcomes (exact law in {seconds:.1f}s)", failures)

    def run_litmus_sweep() -> None:
        from repro.core.memory_models import PAPER_MODELS
        from repro.litmus import check_convergence, explore_random, get_test

        config = RunConfig(workers=options.workers)
        for test in LITMUS_CLASSICS:
            for model in PAPER_MODELS:
                table = explore_random(test, model, options.litmus_trials,
                                       seed=options.seed, config=config)
                report = check_convergence(table)
                check(f"litmus/{test}-{model.name}", report.converged,
                      f"{len(report.sampled)}/{len(report.enumerated)} "
                      f"enumerated outcomes sampled, "
                      f"{len(report.escaped)} escaped, "
                      f"coverage {report.coverage:.3f}",
                      failures)
                check_law(f"litmus-law/{test}-{model.name}", table,
                          get_test(test), model)

    def run_family_sweep() -> None:
        from repro.litmus import (
            FamilySpec,
            ZOO_MODELS,
            assert_convergence,
            explore_random,
            family_member,
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
        members = {f"m{index}": member for index, member in enumerate(
            generate_family(spec, 2, seed=options.family_seed))}
        # Tier 1 checks this fenced 3-thread member's law under TSO and
        # WO only (tests/test_litmus_law.py): its non-multicopy-atomic
        # laws take seconds each, so the rest of the zoo runs here.
        members["pinned"] = family_member(
            FamilySpec(threads=3, ops_per_thread=4, spacing=1,
                       fence_density=0.3), 2, 1)
        config = RunConfig(workers=options.workers)
        for label, member in members.items():
            for model in ZOO_MODELS:
                table = explore_random(member, model, options.family_trials,
                                       seed=options.family_seed,
                                       config=config)
                name = f"family/{label}-{model.name}"
                try:
                    report = assert_convergence(table, test=member,
                                                model=model)
                except Exception as error:  # escaped outcome = bug
                    check(name, False, str(error).splitlines()[0], failures)
                    continue
                check(name, report.contained,
                      f"{len(report.sampled)}/{len(report.enumerated)} "
                      f"enumerated outcomes sampled, coverage "
                      f"{report.coverage:.3f}",
                      failures)
                check_law(f"family-law/{label}-{model.name}", table,
                          member, model)

    run_brackets()
    if options.litmus_trials > 0:
        run_litmus_sweep()
    if options.family_trials > 0:
        run_family_sweep()

    elapsed = time.perf_counter() - start
    print(f"[nightly] {options.trials} trials/check, seed {options.seed}, "
          f"{options.workers} worker(s), "
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

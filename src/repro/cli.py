"""Command-line interface: explore the reproduction without writing code.

Usage (``python -m repro <command>`` or the installed ``repro`` script):

.. code-block:: console

   $ python -m repro table1                 # the relaxation matrix
   $ python -m repro window --model TSO     # Theorem 4.1 laws
   $ python -m repro thm62 --trials 100000  # the headline two-thread table
   $ python -m repro scaling --max-n 64     # Theorem 6.3 curves
   $ python -m repro litmus --test SB       # litmus verdicts
   $ python -m repro machine --model WO     # the canonical bug on the machine
   $ python -m repro fences --model TSO     # the §7 fence sweep
   $ python -m repro fleet SC WO TSO        # heterogeneous fleets
   $ python -m repro experiments            # the paper-artifact registry
   $ python -m repro serve --port 8642      # the estimation job server

Every command prints plain-text tables from :mod:`repro.reporting`.

The global ``--workers N`` flag fans Monte-Carlo trial budgets and sweep
grids out over ``N`` worker processes via :mod:`repro.stats.parallel`.
The statistical identity of a run is ``(seed, shards)``: workers change
wall-clock time, never numbers, and ``--shards`` left unset defaults to
the fixed :data:`~repro.stats.parallel.DEFAULT_SHARDS` whenever
``--workers`` is above 1 (never the worker count).  ``--retries`` /
``--shard-timeout`` / ``--checkpoint`` harden long runs: failed shards
retry with backoff, stuck shards time out, and completed shards are
stored in a checkpoint directory — an interrupted run re-executes only
the missing shards and merges to the identical result.

``--manifest FILE`` / ``--trace FILE`` / ``--progress`` observe a run:
a validated JSON run manifest (per-shard durations, retry ledger, merged
result), a JSONL span trace, and a live stderr progress line with ETA —
all read-only with respect to the numbers (``docs/OBSERVABILITY.md``).

``--cache DIR`` (or ``--cache auto`` for the default store under
``~/.cache/repro``) keeps completed shards in a content-addressed result
cache keyed by the run key — re-runs and overlapping sweep
points fetch their shards instead of recomputing them, with bit-identical
results (``docs/CACHING.md``).  ``repro cache {stats,clear,verify}``
inspects and manages the store.

``--transport {auto,pickle,shm}`` selects the shard result channel
(shared-memory rows vs pickling; a scheduling concern — numbers are
identical either way).  Each command runs one kernel
(``docs/KERNELS.md``); ``machine --backend {scalar,vectorized}`` is the
one choice, between the cycle-accurate machine (the default) and its
statistically equivalent whole-array kernel.

Every global engine flag is parsed into **one**
:class:`repro.runconfig.RunConfig` (see ``docs/API.md``, "RunConfig")
built by :meth:`RunConfig.from_args` in :func:`main`; each subcommand
handler forwards that single record, so no handler can silently drop a
knob again.  On the engine-aware subcommands (``thm62``, ``machine``,
``scaling``, ``critical-section``) every engine flag may be placed
before or after the subcommand:

.. code-block:: console

   $ python -m repro --workers 4 machine --model TSO --trials 20000
   $ python -m repro --workers 4 --retries 2 --checkpoint run.ckpt \\
         thm62 --trials 1000000
   $ python -m repro thm62 --trials 20000 --workers 2 --manifest m.json
   $ python -m repro machine --model TSO --progress --trace spans.jsonl
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence
from dataclasses import fields as dataclass_fields

from .analysis import (
    critical_section_sweep,
    exponent_gap_curve,
    thread_sweep,
    window_pmf_table,
)
from .core import (
    PAPER_MODELS,
    WO,
    multi_bug_gap_curve,
    estimate_non_manifestation,
    fenced_non_manifestation,
    get_model,
    heterogeneous_non_manifestation,
    non_manifestation_probability,
    table1_rows,
    window_distribution,
)
from .errors import LitmusError, ProgramError, ReproError, SimulationError
from .litmus import ALL_TESTS, check_all, check_test, get_test, get_zoo_model
from .reporting import EXPERIMENTS, render_table
from .runconfig import RunConfig, positive_int
from .sim import run_canonical_bug
from .stats.faults import pool_scope

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    """An argument value only a handler can reject, before it computes
    anything (a model the chosen machine cannot run): :func:`main`
    reports it as a usage error."""


def _non_negative_int(text: str) -> int:
    """``argparse`` type for a count where 0 means none."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text}")
    return value


def _named(lookup):
    """``argparse`` type resolving a name with ``lookup`` (a litmus test
    or a zoo model); an unknown name is a usage error."""
    def parse(name: str):
        try:
            return lookup(name)
        except (KeyError, ReproError) as error:
            raise argparse.ArgumentTypeError(error.args[0]) from None
    return parse


def _cmd_table1(args: argparse.Namespace) -> None:
    print(render_table(table1_rows(), title="Table 1: relaxed ordered pairs"))


def _cmd_window(args: argparse.Namespace) -> None:
    if args.model:
        model = get_model(args.model)
        dist = window_distribution(model, args.store_probability)
        rows = [
            {"gamma": gamma, f"Pr[B_gamma] {model.name}": dist.pmf(gamma)}
            for gamma in range(args.max_gamma + 1)
        ]
        title = f"Theorem 4.1 window law for {model.name}"
    else:
        rows = window_pmf_table(range(args.max_gamma + 1))
        title = "Theorem 4.1 window laws"
    print(render_table(rows, precision=args.precision, title=title))


def _cmd_thm62(args: argparse.Namespace) -> None:
    rows = []
    for model in PAPER_MODELS:
        exact = non_manifestation_probability(model).value
        row: dict[str, object] = {
            "model": model.name,
            "Pr[A]": exact,
            "Pr[bug]": 1.0 - exact,
        }
        if args.trials:
            empirical = estimate_non_manifestation(
                model, 2, args.trials, seed=args.seed,
                config=args.run_config,
            )
            row["monte carlo"] = empirical.estimate
            row["agrees"] = empirical.agrees_with(exact)
        rows.append(row)
    print(render_table(rows, precision=args.precision,
                       title="Theorem 6.2: two racing threads"))


def _cmd_scaling(args: argparse.Namespace) -> None:
    counts = [n for n in (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128)
              if n <= args.max_n]
    print(render_table(thread_sweep(counts, config=args.run_config),
                       precision=3,
                       title="Theorem 6.3: ln Pr[A] per model"))
    print()
    print(render_table(exponent_gap_curve(counts, weak_model=WO), precision=4,
                       title="SC vs WO: the vanishing relative gap"))


def _cmd_litmus(args: argparse.Namespace) -> None:
    if args.test:
        test = get_test(args.test)
        rows = []
        for model in PAPER_MODELS:
            verdict = check_test(test, model)
            rows.append(
                {
                    "model": model.name,
                    "relaxed outcome": "allowed" if verdict.relaxed_reachable else "forbidden",
                    "reachable outcomes": len(verdict.outcomes),
                    "matches literature": verdict.matches_literature,
                }
            )
        print(f"{test.name}: {test.description}")
        print(render_table(rows))
        return
    rows = []
    for test in ALL_TESTS:
        row: dict[str, object] = {"test": test.name}
        for verdict in check_all(tests=[test]):
            row[verdict.model.name] = (
                "allowed" if verdict.relaxed_reachable else "forbidden"
            )
        rows.append(row)
    print(render_table(rows, title="Litmus verdicts (relaxed outcome per model)"))


def _cmd_litmus_explore(args: argparse.Namespace) -> None:
    """Sharded, cached litmus exploration (docs/LITMUS.md).

    Exhaustive mode enumerates exact outcome sets over the test×model
    grid (content-addressed in the shard cache); random mode estimates
    outcome frequencies with seed-disciplined sampling and cross-checks
    them against the enumerated sets.  Cache tallies go to stderr so
    cold and warm runs print byte-identical stdout/--json output.
    """
    import json
    import sys

    from .litmus import (
        check_convergence,
        explore_exhaustive,
        explore_random,
        robustness_report,
    )

    tests = args.tests or list(ALL_TESTS)
    models = args.models or list(PAPER_MODELS)
    config = args.run_config
    payload: dict[str, object] = {}

    exploration = None
    if args.mode in ("exhaustive", "both"):
        exploration = explore_exhaustive(tests, models, config=config)
        rows = []
        for test in tests:
            row: dict[str, object] = {"test": test.name}
            for model in models:
                row[model.name] = len(
                    exploration.outcome_set(test.name, model.name))
            rows.append(row)
        print(render_table(
            rows, title="Exhaustive exploration (reachable outcomes per model)"))
        if exploration.cache_hits or exploration.cache_stored:
            print(f"cache: {exploration.cache_hits} hits, "
                  f"{exploration.cache_misses} misses, "
                  f"{exploration.cache_stored} stored", file=sys.stderr)
        payload.update(exploration.to_json_dict())

    if args.mode in ("random", "both"):
        rows = []
        random_payload: dict[str, dict[str, object]] = {}
        for test in tests:
            for model in models:
                table = explore_random(test, model, args.trials,
                                       seed=args.seed, config=config)
                enumerated = (exploration.outcome_set(test.name, model.name)
                              if exploration is not None else None)
                report = check_convergence(table, enumerated,
                                           test=test, model=model)
                rows.append({
                    "test": test.name,
                    "model": model.name,
                    "sampled outcomes": len(table.support),
                    "enumerated": len(report.enumerated),
                    "coverage": report.coverage,
                    "contained": report.contained,
                })
                entry = table.to_json_dict()
                entry["coverage"] = report.coverage
                entry["contained"] = report.contained
                random_payload.setdefault(test.name, {})[model.name] = entry
        print(render_table(
            rows, precision=3,
            title=f"Pseudorandom exploration ({args.trials} trials, "
                  f"seed {args.seed})"))
        payload["random"] = random_payload

    if args.robustness:
        robustness = robustness_report(
            tests, [model for model in models if model.name != "SC"],
            exploration=(exploration
                         if exploration is not None
                         and any(model.name == "SC" for model in models)
                         else None),
            config=config)
        print(render_table(robustness.rows(),
                           title="Robustness against weak models "
                                 "(outcome-set diff vs SC)"))
        payload["robustness"] = robustness.to_json_dict()

    if args.json_path:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if args.json_path == "-":
            sys.stdout.write(text)
        else:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                handle.write(text)


def _cmd_litmus_generate(args: argparse.Namespace) -> None:
    """Generated program families swept across the model zoo (docs/LITMUS.md).

    Draws a seed-disciplined family from the declarative spec knobs and
    re-estimates the manifestation bracket (sampled probability mass
    outside the enumerated SC set, Wilson interval) for every member
    under every requested model.  The sweep rides the full engine —
    cache, checkpoints, manifests — and its JSON output is a pure
    function of ``(spec, seed, count, trials, shards)``, so a
    warm re-run prints byte-identical output while executing nothing.
    """
    import json
    import sys

    from .litmus import FamilySpec, sweep_family

    spec = FamilySpec(
        threads=args.threads,
        ops_per_thread=args.ops_per_thread,
        addresses=args.addresses,
        spacing=args.spacing,
        fence_density=args.fence_density,
        store_fraction=args.store_fraction,
    )
    report = sweep_family(
        spec, args.models, count=args.count, trials=args.trials,
        seed=args.seed, config=args.run_config,
    )
    if args.programs:
        from .litmus import generate_family
        for test in generate_family(spec, args.count, args.seed):
            print(f"{test.name}:")
            for program in test.programs:
                ops = "; ".join(repr(op) for op in program.operations)
                print(f"  {program.name}: {ops}")
    print(render_table(
        report.rows(), precision=6,
        title=f"Family sweep ({args.count} members x "
              f"{len({point.model for point in report.points})} models, "
              f"{args.trials} trials, seed {args.seed})"))
    if args.json_path:
        text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        if args.json_path == "-":
            sys.stdout.write(text)
        else:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                handle.write(text)


def _cmd_machine(args: argparse.Namespace) -> None:
    try:
        result = run_canonical_bug(
            args.model,
            threads=args.threads,
            trials=args.trials,
            seed=args.seed,
            body_length=args.body_length,
            fenced=args.fenced,
            atomic=args.atomic,
            backend=args.backend,
            config=args.run_config,
        )
    except (ProgramError, SimulationError, ValueError) as error:
        # Refused at the call, before any trial (a trial's own failure
        # arrives wrapped as a ShardExecutionError): a count, variant or
        # model the chosen machine cannot run.
        raise _UsageError(str(error)) from None
    print(result)


def _cmd_fences(args: argparse.Namespace) -> None:
    model = get_model(args.model)
    rows = []
    for distance in args.distances:
        value = fenced_non_manifestation(model, distance).value
        rows.append({"fence distance": distance, "Pr[A]": value, "Pr[bug]": 1 - value})
    print(render_table(rows, precision=args.precision,
                       title=f"§7 fences under {model.name}, n = 2"))


def _cmd_fleet(args: argparse.Namespace) -> None:
    models = [get_model(name) for name in args.models]
    value = heterogeneous_non_manifestation(
        models, allow_independent_approximation=args.approximate
    ).value
    fleet = "+".join(model.name for model in models)
    print(f"fleet {fleet}: Pr[A] = {value:.6f}, Pr[bug] = {1 - value:.6f}")


def _cmd_critical_section(args: argparse.Namespace) -> None:
    print(render_table(critical_section_sweep(args.lengths,
                                              config=args.run_config),
                       precision=6,
                       title="Pr[A] vs critical-section duration L"))


def _cmd_multibug(args: argparse.Namespace) -> None:
    print(render_table(multi_bug_gap_curve(args.bugs), precision=6,
                       title="Pr[A] vs bug count K (two threads)"))
    print()
    print("SC is constant; weak models decay polynomially: the model gap")
    print("DIVERGES along the bug-count axis (the dual of Theorem 6.3).")


def _cmd_verify(args: argparse.Namespace) -> None:
    """Fast paper-vs-library checklist (analytic checks only)."""
    from .core import (
        SC,
        TSO,
        c_constant,
        log_non_manifestation,
        run_length_distribution,
        steady_state_store_fraction,
        tso_two_thread_bounds,
        tso_window_distribution,
        tso_window_lower_bound,
        tso_window_upper_bound,
        wo_window_distribution,
    )

    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool) -> None:
        checks.append((name, bool(ok)))

    check("Table 1 relaxation matrix",
          [tuple(row[c] for c in ("ST/ST", "ST/LD", "LD/ST", "LD/LD"))
           for row in table1_rows()] ==
          [(False,) * 4, (False, True, False, False),
           (True, True, False, False), (True,) * 4])
    wo = wo_window_distribution()
    check("Thm 4.1 WO closed form",
          abs(wo.pmf(0) - 2 / 3) < 1e-12 and abs(wo.pmf(3) - 2.0**-3 / 3) < 1e-12)
    tso_window = tso_window_distribution()
    check("Thm 4.1 TSO inside published bounds",
          all(tso_window_lower_bound(g) - 1e-12 <= tso_window.pmf(g)
              <= tso_window_upper_bound(g) + 1e-12 for g in range(1, 10)))
    check("Claim 4.3 store fraction 2/3",
          abs(steady_state_store_fraction() - 2 / 3) < 1e-12)
    runs = run_length_distribution()
    check("Lemma 4.2 bound + Pr[L_0] = 1/3",
          abs(runs.pmf(0) - 1 / 3) < 1e-8 and
          all(runs.pmf(mu) >= (4 / 7) * 2.0**-mu - 1e-12 for mu in range(1, 16)))
    check("Cor 5.2 c(2) = 8/3 and c(n) in [2, 4]",
          abs(c_constant(2) - 8 / 3) < 1e-12 and
          all(2 <= c_constant(n) <= 4 for n in range(1, 20)))
    sc_value = non_manifestation_probability(SC).value
    tso_value = non_manifestation_probability(TSO).value
    wo_value = non_manifestation_probability(WO).value
    lower, upper = tso_two_thread_bounds()
    check("Thm 6.2 SC = 1/6", abs(sc_value - 1 / 6) < 1e-12)
    check("Thm 6.2 WO = 7/54", abs(wo_value - 7 / 54) < 1e-12)
    check("Thm 6.2 TSO in (0.1315, 0.1369)", lower < tso_value < upper)
    ratio_small = log_non_manifestation(SC, 2) / log_non_manifestation(WO, 2)
    ratio_large = log_non_manifestation(SC, 128) / log_non_manifestation(WO, 128)
    check("Thm 6.3 gap vanishes (log-ratio -> 1)",
          ratio_small < 0.9 < 0.99 < ratio_large)
    check("Litmus verdicts match literature",
          all(verdict.matches_literature for verdict in check_all()))

    width = max(len(name) for name, _ in checks)
    failed = 0
    for name, ok in checks:
        print(f"  {name.ljust(width)}  {'OK' if ok else 'FAIL'}")
        failed += not ok
    print()
    if failed:
        print(f"{failed} of {len(checks)} checks FAILED")
        raise SystemExit(1)
    print(f"all {len(checks)} checks passed — the reproduction matches the paper")


def _cmd_cache(args: argparse.Namespace) -> None:
    """Inspect or manage the content-addressed shard result cache.

    The directory may also be a checkpoint.  A size cap belongs to how a
    run opens the directory, not to the directory, so the store is opened
    without one and ``stats`` names the cap each kind of run applies.
    """
    from .cache import DEFAULT_MAX_BYTES, ShardStore, default_cache_root

    root = args.dir if args.dir is not None else default_cache_root()
    store = ShardStore(root, max_bytes=None)
    if args.action == "stats":
        stats = store.stats()
        print(f"cache root    {stats.root}")
        print(f"entries       {stats.entries}")
        print(f"total bytes   {stats.total_bytes}")
        print(f"size cap      {DEFAULT_MAX_BYTES} under --cache; "
              "none under --checkpoint, which never evicts")
    elif args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} "
              f"from {store.root}")
    else:  # verify
        checked, corrupt = store.verify()
        print(f"verified {checked} cache entr{'y' if checked == 1 else 'ies'} "
              f"in {store.root}: {len(corrupt)} corrupt")
        for path in corrupt:
            print(f"  corrupt: {path}")
        if corrupt:
            raise SystemExit(1)


def _cmd_serve(args: argparse.Namespace) -> None:
    """Run the HTTP estimation service (docs/SERVICE.md)."""
    import os
    from pathlib import Path

    from .service import serve
    from .service.schemas import MANAGED_KNOBS

    config = args.run_config
    managed = [RunConfig.cli_bindings()[knob] for knob in MANAGED_KNOBS
               if getattr(config, knob) not in (None, False)]
    if managed:
        raise SystemExit(
            f"repro serve: {', '.join(managed)} are managed by the service "
            "per job (manifests and the shard cache live under "
            "--state-dir) and cannot be set server-wide")
    state_dir = args.state_dir or os.environ.get(
        "REPRO_SERVICE_DIR", str(Path.home() / ".cache" / "repro" / "service"))
    server = serve(args.host, args.port, Path(state_dir).expanduser(),
                   default_config=config, job_workers=args.job_workers,
                   max_queued=args.max_queued,
                   drain_seconds=args.drain_seconds)
    print(f"repro serve: listening on {server.url} (state: {state_dir})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: draining and checkpointing...", flush=True)
        server.service.shutdown(args.drain_seconds)


def _cmd_experiments(args: argparse.Namespace) -> None:
    rows = [
        {
            "id": experiment.id,
            "paper artifact": experiment.paper_artifact,
            "bench": experiment.bench,
        }
        for experiment in EXPERIMENTS
    ]
    print(render_table(rows, title="Experiment registry (see DESIGN.md / EXPERIMENTS.md)"))


def _add_engine_options(parser: argparse.ArgumentParser,
                        suppress: bool = False) -> None:
    """The engine/observability flag set, declared from the ``RunConfig``
    field metadata, shared by the root parser and the engine-aware
    subcommands.

    Each bound field contributes one flag with its parse-time options
    (``type``/``choices``/``metavar``/``action``) and its ``doc`` as the
    help text.  The root parser carries the real defaults; subparsers
    re-declare the same flags with ``argparse.SUPPRESS`` defaults so the
    flags may be placed before *or after* the subcommand without the
    subparser's defaults clobbering root-parsed values.
    """
    for spec in dataclass_fields(RunConfig):
        metadata = dict(spec.metadata)
        parser.add_argument(
            metadata.pop("cli"), dest=metadata.pop("args"),
            default=argparse.SUPPRESS if suppress else spec.default,
            help=metadata.pop("doc").replace("`", ""), **metadata)


def _engine_flags_epilog() -> str:
    """The ``--help`` epilog, generated from the ``RunConfig`` metadata.

    Generated, not hand-written, for the same reason the README flag
    table is (:meth:`RunConfig.flag_table_markdown`): a new knob lands
    in the epilog by construction, so the help text can never lag the
    flag set again.
    """
    lines = ["engine flags (each folds into the one RunConfig record; "
             "see docs/API.md):"]
    for spec in dataclass_fields(RunConfig):
        doc = spec.metadata["doc"].replace("`", "")
        lines.append(f"  {spec.metadata['cli']:<16} {doc}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'The Impact of Memory Models on Software "
        "Reliability in Multiprocessors' (PODC 2011).",
        epilog=_engine_flags_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_engine_options(parser)
    # Engine-aware subcommands accept the same flags *after* the
    # subcommand (SUPPRESS defaults keep the root's values authoritative
    # when a flag is only given up front).
    engine = argparse.ArgumentParser(add_help=False)
    _add_engine_options(engine, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the Table 1 relaxation matrix").set_defaults(
        run=_cmd_table1
    )

    window = sub.add_parser("window", help="Theorem 4.1 window-growth laws")
    window.add_argument("--model", help="one model (default: all four)")
    window.add_argument("--max-gamma", type=int, default=6)
    window.add_argument("--store-probability", type=float, default=0.5)
    window.add_argument("--precision", type=int, default=5)
    window.set_defaults(run=_cmd_window)

    thm62 = sub.add_parser("thm62", help="the two-thread Theorem 6.2 table",
                           parents=[engine])
    thm62.add_argument("--trials", type=_non_negative_int, default=0,
                       help="also run this many Monte-Carlo trials per model")
    thm62.add_argument("--seed", type=int, default=0)
    thm62.add_argument("--precision", type=int, default=6)
    thm62.set_defaults(run=_cmd_thm62)

    scaling = sub.add_parser("scaling", help="Theorem 6.3 thread-scaling curves",
                             parents=[engine])
    scaling.add_argument("--max-n", type=int, default=64)
    scaling.set_defaults(run=_cmd_scaling)

    litmus = sub.add_parser("litmus",
                            help="litmus-test verdicts and exploration")
    litmus.add_argument("--test", help="one test (SB, MP, LB, CoRR, 2+2W, IRIW, ...)")
    litmus.set_defaults(run=_cmd_litmus)
    litmus_sub = litmus.add_subparsers(dest="litmus_command", required=False)
    explore = litmus_sub.add_parser(
        "explore", parents=[engine],
        help="sharded, cached litmus exploration: exhaustive outcome "
             "enumeration, pseudorandom frequency estimation, and the "
             "robustness classifier (docs/LITMUS.md)")
    explore.add_argument("--tests", nargs="+", metavar="TEST", default=None,
                         type=_named(get_test),
                         help="litmus tests to explore (default: the full "
                         "battery)")
    explore.add_argument("--models", nargs="+", metavar="MODEL", default=None,
                         type=_named(get_zoo_model),
                         help="memory models to explore under (default: all "
                         "four paper models)")
    explore.add_argument("--mode", choices=["exhaustive", "random", "both"],
                         default="exhaustive",
                         help="exhaustive: exact outcome sets (cached); "
                         "random: seed-disciplined frequency estimation with "
                         "a convergence cross-check; both: exhaustive first, "
                         "then random checked against it (default: "
                         "exhaustive)")
    explore.add_argument("--trials", type=positive_int, default=100_000,
                         help="random-mode trial budget per grid point "
                         "(default: 100000)")
    explore.add_argument("--seed", type=int, default=0,
                         help="random-mode root seed (default: 0)")
    explore.add_argument("--robustness", action="store_true",
                         help="also classify each test as robust vs "
                         "non-robust per weak model (outcome-set diff "
                         "against SC)")
    explore.add_argument("--json", dest="json_path", metavar="FILE",
                         default=None,
                         help="also write the full deterministic report as "
                         "JSON to FILE ('-' for stdout)")
    explore.set_defaults(run=_cmd_litmus_explore)
    generate = litmus_sub.add_parser(
        "generate", parents=[engine],
        help="generated litmus-program families swept across the model "
             "zoo: seed-disciplined constrained random programs, "
             "manifestation brackets vs the SC baseline (docs/LITMUS.md)")
    generate.add_argument("--threads", type=int, default=2,
                          help="threads per generated program (default: 2)")
    generate.add_argument("--ops-per-thread", type=int, default=4,
                          help="memory operations per thread, the critical "
                          "pair included (default: 4)")
    generate.add_argument("--addresses", type=int, default=2,
                          help="filler address-pool size (default: 2)")
    generate.add_argument("--spacing", type=int, default=0,
                          help="filler operations strictly between the "
                          "critical store and load (default: 0)")
    generate.add_argument("--fence-density", type=float, default=0.0,
                          help="probability of a fence between consecutive "
                          "operations (default: 0.0)")
    generate.add_argument("--store-fraction", type=float, default=0.5,
                          help="probability a filler is a store "
                          "(default: 0.5)")
    generate.add_argument("--count", type=positive_int, default=4,
                          help="family members to generate (default: 4)")
    generate.add_argument("--models", nargs="+", metavar="MODEL", default=None,
                          type=_named(get_zoo_model),
                          help="models to sweep (default: the full zoo — "
                          "SC TSO PSO WO PSO-WB SC-NMCA WO-NMCA)")
    generate.add_argument("--trials", type=positive_int, default=20_000,
                          help="sampling budget per (member, model) point "
                          "(default: 20000)")
    generate.add_argument("--seed", type=int, default=0,
                          help="family seed: generation AND sampling "
                          "(default: 0)")
    generate.add_argument("--programs", action="store_true",
                          help="also print each generated program listing")
    generate.add_argument("--json", dest="json_path", metavar="FILE",
                          default=None,
                          help="also write the deterministic sweep report "
                          "as JSON to FILE ('-' for stdout)")
    generate.set_defaults(run=_cmd_litmus_generate)

    machine = sub.add_parser("machine", help="run the canonical bug on the simulator",
                             parents=[engine])
    machine.add_argument("--model", default="TSO")
    machine.add_argument("--threads", type=int, default=2)
    machine.add_argument("--trials", type=int, default=2000)
    machine.add_argument("--seed", type=int, default=0)
    machine.add_argument("--body-length", type=int, default=8)
    machine.add_argument("--fenced", action="store_true")
    machine.add_argument("--atomic", action="store_true")
    machine.add_argument("--backend", choices=("scalar", "vectorized"),
                         default="scalar",
                         help="scalar: the cycle-accurate machine (every "
                         "model and variant); vectorized: its whole-array "
                         "kernel (racy SC/TSO/PSO only)")
    machine.set_defaults(run=_cmd_machine)

    fences = sub.add_parser("fences", help="the §7 fence-distance sweep")
    fences.add_argument("--model", default="TSO")
    fences.add_argument("--distances", type=int, nargs="+",
                        default=[0, 1, 2, 4, 8, 16, 48])
    fences.add_argument("--precision", type=int, default=6)
    fences.set_defaults(run=_cmd_fences)

    fleet = sub.add_parser("fleet", help="Pr[A] for a heterogeneous fleet")
    fleet.add_argument("models", nargs="+", help="e.g. SC WO TSO")
    fleet.add_argument("--approximate", action="store_true",
                       help="allow the independent-window approximation")
    fleet.set_defaults(run=_cmd_fleet)

    section = sub.add_parser("critical-section",
                             help="Pr[A] vs critical-section duration",
                             parents=[engine])
    section.add_argument("--lengths", type=int, nargs="+", default=[2, 3, 4, 6, 8])
    section.set_defaults(run=_cmd_critical_section)

    multibug = sub.add_parser("multibug",
                              help="Pr[A] vs number of racy sections (E16)")
    multibug.add_argument("--bugs", type=int, nargs="+",
                          default=[1, 2, 4, 16, 64, 256])
    multibug.set_defaults(run=_cmd_multibug)

    cache = sub.add_parser("cache",
                           help="inspect/manage the shard result cache")
    cache.add_argument("action", choices=["stats", "clear", "verify"],
                       help="stats: entry count and size; clear: delete every "
                       "entry; verify: integrity-check entries (exit 1 if any "
                       "is corrupt)")
    cache.add_argument("--dir", metavar="DIR", default=None,
                       help="cache directory (default: $REPRO_CACHE_DIR or "
                       "~/.cache/repro/shards)")
    cache.set_defaults(run=_cmd_cache)

    serve_cmd = sub.add_parser(
        "serve", help="run the HTTP estimation job server (docs/SERVICE.md)",
        parents=[engine])
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default: 127.0.0.1)")
    serve_cmd.add_argument("--port", type=int, default=8642,
                           help="bind port; 0 picks an ephemeral port and "
                           "prints it (default: 8642)")
    serve_cmd.add_argument("--state-dir", default=None, metavar="DIR",
                           help="service state: job registry, per-job "
                           "manifests, shared shard cache "
                           "(default: $REPRO_SERVICE_DIR or "
                           "~/.cache/repro/service)")
    serve_cmd.add_argument("--job-workers", type=positive_int, default=1,
                           metavar="N",
                           help="concurrent jobs; each job still fans its "
                           "shards over the engine --workers (default: 1)")
    serve_cmd.add_argument("--max-queued", type=positive_int, default=64,
                           metavar="N",
                           help="queued-job cap; extra submissions get 429 "
                           "(default: 64)")
    serve_cmd.add_argument("--drain-seconds", type=float, default=30.0,
                           metavar="SEC",
                           help="graceful-shutdown window for running jobs "
                           "(default: 30)")
    serve_cmd.set_defaults(run=_cmd_serve)

    sub.add_parser("experiments", help="list the paper-artifact registry").set_defaults(
        run=_cmd_experiments
    )

    sub.add_parser("verify", help="fast paper-vs-library checklist").set_defaults(
        run=_cmd_verify
    )
    return parser


def _reject_unknown_leading_options(parser: argparse.ArgumentParser,
                                    argv: Sequence[str] | None) -> None:
    """Fail on an unknown option before the subcommand, naming it.

    argparse skips such an option but takes the value after it for the
    subcommand, so ``repro --backend vectorized thm62`` would report an
    invalid choice ``'vectorized'``.  This parses the root's own options
    up to the subcommand, the same way the root parser does.
    """
    leading = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    leading.error = parser.error
    leading.add_argument("-h", "--help", action="store_true")
    _add_engine_options(leading)
    leading.add_argument("command", nargs=argparse.REMAINDER)
    unknown = leading.parse_known_args(argv)[1]
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro`` script.

    The global engine flags are folded into one validated
    :class:`~repro.runconfig.RunConfig` here — the single point where
    CLI knobs become an execution context — so every subcommand handler
    sees the same ``args.run_config`` and none can drop a flag.  A value
    the config rejects (``--retries -1``, ``--shard-timeout nan``) is a
    usage error: exit code 2 with the parser's message, no traceback.
    So is a value a handler rejects before computing, every
    :class:`~repro.errors.LitmusError` (the litmus layer raises one only
    for its inputs, before anything is printed), and an unknown option
    before the subcommand.  The command runs in one
    :func:`~repro.stats.faults.pool_scope`, so its pooled engine calls
    share one process pool.
    """
    parser = build_parser()
    _reject_unknown_leading_options(parser, argv)
    args = parser.parse_args(argv)
    try:
        args.run_config = RunConfig.from_args(args)
    except ValueError as error:
        parser.error(str(error))
    try:
        with pool_scope():
            args.run(args)
    except (_UsageError, LitmusError) as error:
        parser.error(str(error))
    return 0

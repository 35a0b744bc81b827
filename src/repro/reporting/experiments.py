"""The experiment registry: every paper table/figure mapped to its bench.

DESIGN.md's per-experiment index, as data: the benchmark harness and the
documentation both read this registry, so the mapping from paper artifact
to reproducing code lives in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Experiment", "EXPERIMENTS", "get_experiment"]


@dataclass(frozen=True)
class Experiment:
    """One reproducible artifact of the paper."""

    id: str
    paper_artifact: str
    summary: str
    modules: tuple[str, ...]
    bench: str


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        id="E1",
        paper_artifact="Table 1",
        summary="Memory-model relaxation matrix (ST/ST, ST/LD, LD/ST, LD/LD).",
        modules=("repro.core.memory_models",),
        bench="benchmarks/bench_table1_memory_models.py",
    ),
    Experiment(
        id="E2",
        paper_artifact="Figure 1",
        summary="Instantiation of the settling process under TSO (round trace).",
        modules=("repro.core.settling", "repro.viz.settling_trace"),
        bench="benchmarks/bench_fig1_settling_trace.py",
    ),
    Experiment(
        id="E3",
        paper_artifact="Figure 2",
        summary="Instantiation of the shift process (3 segments, event prob 2^-13).",
        modules=("repro.core.shift", "repro.viz.shift_diagram"),
        bench="benchmarks/bench_fig2_shift_diagram.py",
    ),
    Experiment(
        id="E4",
        paper_artifact="Theorem 4.1",
        summary="Critical-window growth Pr[B_gamma] per model vs Monte Carlo.",
        modules=("repro.core.window_analytic", "repro.core.settling"),
        bench="benchmarks/bench_thm41_critical_window.py",
    ),
    Experiment(
        id="E5",
        paper_artifact="Claim 4.3",
        summary="Steady-state store fraction 2/3 under TSO.",
        modules=("repro.core.tso_analysis",),
        bench="benchmarks/bench_claim43_st_fraction.py",
    ),
    Experiment(
        id="E6",
        paper_artifact="Lemma 4.2",
        summary="Pr[L_mu] >= (4/7) 2^-mu; exact-numeric vs the paper's bound.",
        modules=("repro.core.tso_analysis", "repro.core.partitions"),
        bench="benchmarks/bench_lemma42_contiguous_sts.py",
    ),
    Experiment(
        id="E7",
        paper_artifact="Theorem 5.1 / Corollary 5.2",
        summary="Exact shift-process disjointness; c(n) in [2,4], c(2) = 8/3.",
        modules=("repro.core.shift_analytic", "repro.core.shift"),
        bench="benchmarks/bench_thm51_shift_process.py",
    ),
    Experiment(
        id="E8",
        paper_artifact="Theorem 6.2",
        summary="Two-thread Pr[A]: SC 1/6, TSO in (0.1315, 0.1369), WO 7/54.",
        modules=("repro.core.manifestation",),
        bench="benchmarks/bench_thm62_two_threads.py",
    ),
    Experiment(
        id="E9",
        paper_artifact="Theorem 6.3",
        summary="Pr[A] = e^{-n^2(1+o(1))}; the model gap vanishes with n.",
        modules=("repro.core.manifestation", "repro.analysis.asymptotics"),
        bench="benchmarks/bench_thm63_thread_scaling.py",
    ),
    Experiment(
        id="E10",
        paper_artifact="§2.2 canonical bug (machine)",
        summary="The atomicity violation on the simulated multiprocessor.",
        modules=("repro.sim",),
        bench="benchmarks/bench_machine_canonical_bug.py",
    ),
    Experiment(
        id="E11",
        paper_artifact="§2.1 model semantics (litmus)",
        summary="Litmus outcomes per model match the architecture literature.",
        modules=("repro.litmus",),
        bench="benchmarks/bench_litmus_outcomes.py",
    ),
    Experiment(
        id="E12",
        paper_artifact="Footnote 4 (PSO)",
        summary="PSO window law and two-thread Pr[A], derived and validated.",
        modules=("repro.core.window_analytic",),
        bench="benchmarks/bench_pso_extension.py",
    ),
    Experiment(
        id="E13",
        paper_artifact="§7 fences (future work)",
        summary="Acquire/release fences in the settling model; the paper's "
        "conjecture that fences change no qualitative conclusion.",
        modules=("repro.core.fences",),
        bench="benchmarks/bench_fences_extension.py",
    ),
    Experiment(
        id="E14",
        paper_artifact="§6 beyond identical marginals",
        summary="Heterogeneous fleets: exact Pr[A] for threads under "
        "different memory models.",
        modules=("repro.core.heterogeneous",),
        bench="benchmarks/bench_heterogeneous_fleet.py",
    ),
    Experiment(
        id="E15",
        paper_artifact="§2.1 store atomicity (scoping check)",
        summary="Non-atomic store propagation: an orthogonal risk axis, "
        "validating the paper's decision to ignore it.",
        modules=("repro.litmus.core", "repro.litmus.zoo"),
        bench="benchmarks/bench_store_atomicity.py",
    ),
    Experiment(
        id="E16",
        paper_artifact="Theorem 6.3's dual axis (bug count)",
        summary="Many racy sections, two threads: the model gap DIVERGES "
        "along the bug-count axis (SC constant, weak models ~ K^-a).",
        modules=("repro.core.multibug",),
        bench="benchmarks/bench_multi_bug_scaling.py",
    ),
    Experiment(
        id="E17",
        paper_artifact="infrastructure: trial-budget scaling",
        summary="Sharded parallel Monte-Carlo engine: bit-reproducible "
        "for fixed (seed, shards) at any worker count; throughput "
        "tracked in BENCH_parallel_scaling.json.",
        modules=("repro.stats.parallel",),
        bench="benchmarks/bench_parallel_scaling.py",
    ),
    Experiment(
        id="E18",
        paper_artifact="infrastructure: run reliability",
        summary="Fault-tolerant, resumable shard execution: bounded "
        "retry with backoff, per-shard timeouts, BrokenProcessPool "
        "recovery, and checkpoint/resume — every recovery path merges "
        "bit-identically to an uninterrupted run (shards are pure in "
        "(seed, shards, i)); overhead tracked in BENCH_fault_recovery.json.",
        modules=("repro.stats.faults", "repro.stats.checkpoint"),
        bench="benchmarks/bench_fault_recovery.py",
    ),
    Experiment(
        id="E19",
        paper_artifact="infrastructure: observability",
        summary="Read-only observability for the sharded engine: run "
        "manifests (plan identity, per-shard durations, retry ledger, "
        "merged result), span traces, and a live progress/ETA line — "
        "inert by construction (telemetry rides the result channel, "
        "merged numbers unchanged); overhead budget <=5% enforced in "
        "BENCH_obs_overhead.json.",
        modules=("repro.obs",),
        bench="benchmarks/bench_obs_overhead.py",
    ),
    Experiment(
        id="E20",
        paper_artifact="infrastructure: vectorized kernels",
        summary="Whole-array NumPy kernels for the settling/shift/joined/"
        "machine processes (one kernel per estimator; the machine's "
        "run_canonical_bug(backend=) / repro machine --backend), "
        "statistically equivalent to the scalar reference and pinned by "
        "closed-form, two-sample and exact-support checks; >=10x "
        "single-core speedup committed in BENCH_vectorized_kernels.json "
        "and guarded by the CI benchmark-regression gate.",
        modules=("repro.kernels",),
        bench="benchmarks/bench_vectorized_kernels.py",
    ),
    Experiment(
        id="E21",
        paper_artifact="infrastructure: run identity + result cache",
        summary="v2 checkpoint keys fingerprint the trial kernel (the v1 "
        "format let different kernels silently share a journal); on top, "
        "a content-addressed, integrity-checked shard result cache "
        "(cache='auto' / --cache) makes warm re-runs and overlapping "
        "sweep points fetch finished shards bit-identically — warm >=5x "
        "cold committed in BENCH_cache_reuse.json.",
        modules=("repro.cache", "repro.stats.checkpoint"),
        bench="benchmarks/bench_cache_reuse.py",
    ),
    Experiment(
        id="E22",
        paper_artifact="infrastructure: estimation-as-a-service",
        summary="repro serve fronts the engine with a stdlib HTTP/JSON "
        "job API (submit / poll progress / fetch validated manifests): "
        "concurrent identical submissions dedup onto one job via the v2 "
        "identity, a priority queue with a max-queued cap rate-limits, "
        "and graceful shutdown demotes in-flight jobs for journal-backed "
        "resume on restart — warm submit-to-result latency tracked in "
        "BENCH_service_latency.json.",
        modules=("repro.service",),
        bench="benchmarks/bench_service_latency.py",
    ),
    Experiment(
        id="E23",
        paper_artifact="infrastructure: litmus exploration engine",
        summary="Sharded litmus exploration on the E11 substrate: "
        "exhaustive mode enumerates exact outcome sets over the "
        "tests x models grid, content-addressed in the shard cache "
        "(program digest + model + enumerator fingerprint), so warm "
        "re-explorations execute zero grid points; pseudorandom mode "
        "samples legal reorderings and uniformly random interleavings "
        "with seed-disciplined streams (tables bit-identical at any "
        "worker count) and must converge into the enumerated sets; the "
        "robustness analyzer diffs each weak model's set against SC — "
        "warm-cache speedup tracked in BENCH_litmus_explore.json.",
        modules=("repro.litmus.explore", "repro.litmus.robustness"),
        bench="benchmarks/bench_litmus_explore.py",
    ),
    Experiment(
        id="E24",
        paper_artifact="§6 generalised: program families x model zoo",
        summary="Constrained random litmus-program families swept "
        "across the memory-model zoo: generate_family draws "
        "seed-disciplined SB-style critical cycles (thread count, ops "
        "per thread, filler address pool, critical-pair spacing, fence "
        "density) from a dedicated Philox lane, so member i is a pure "
        "function of (spec, seed, i); sweep_family re-estimates "
        "Thm 6.2-style manifestation brackets (sampled mass outside "
        "the enumerated SC baseline, Wilson-bracketed) for every "
        "member under every zoo model — the paper four plus the "
        "operational write-buffer PSO and the non-multicopy-atomic "
        "SC/WO flavors — warm-cache sweep speedup tracked in "
        "BENCH_litmus_family.json.",
        modules=("repro.litmus.generate", "repro.litmus.zoo"),
        bench="benchmarks/bench_litmus_family.py",
    ),
)

_REGISTRY = {experiment.id: experiment for experiment in EXPERIMENTS}


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by id (``"E1"`` … ``"E24"``)."""
    try:
        return _REGISTRY[experiment_id.upper()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}") from None

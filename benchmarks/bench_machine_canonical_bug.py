"""E10 — the §2.2 canonical bug on the simulated multiprocessor.

The abstract model predicts (Theorem 6.2) that weaker models manifest the
race more often and (Theorem 6.3) that more threads overwhelm the model
choice.  This bench runs the *mechanistic* version — store-buffer and
out-of-order cores racing on a real simulated counter — and checks that
the machine agrees with the abstract model on every qualitative claim.
Absolute numbers differ by construction (the machine's timing is not the
shift process); who-wins and the thread trend must match.
"""

from __future__ import annotations

from conftest import show

from repro.analysis import compare_model_and_machine, ordering_consistent
from repro.core import PAPER_MODELS, get_model
from repro.reporting import render_table
from repro.sim import run_canonical_bug

TRIALS = 3_000

#: The ordering check compares point estimates within 0.04.  The true
#: machine TSO-WO gap is about 0.026 (48k trials per model), so at 3k
#: trials (gap SE ~0.009) about one stream in twenty reverses past the
#: tolerance by noise alone; at 12k (SE ~0.0043) the margin is 3.2 SE.
ORDERING_TRIALS = 12_000


def test_machine_vs_model_ordering(run_once):
    def compute():
        return [
            compare_model_and_machine(model, threads=2, trials=ORDERING_TRIALS,
                                      seed=1212, body_length=8)
            for model in PAPER_MODELS
        ]

    comparisons = run_once(compute)
    show(render_table([comparison.row() for comparison in comparisons],
                      precision=4, title="E10: abstract vs machine Pr[bug], n = 2"))

    by_name = {comparison.model.name: comparison for comparison in comparisons}
    # SC is strictly safest on the machine, as the abstract model predicts.
    for weak in ("TSO", "PSO", "WO"):
        assert (
            by_name["SC"].machine.manifestation.high
            < by_name[weak].machine.manifestation.low
        ), weak
    # Full ranking agreement, allowing ties within MC noise + microarch blur
    # (the single-address canonical bug makes machine-PSO ~ machine-TSO).
    assert ordering_consistent(comparisons, tolerance=0.04)


def test_machine_thread_scaling(run_once):
    """More threads -> more manifestations, for strong and weak models alike,
    and the SC-vs-WO gap shrinks relative to the risk (Theorem 6.3's shape)."""

    def compute():
        rows = []
        for threads in (2, 3, 4, 6):
            sc = run_canonical_bug("SC", threads, TRIALS, seed=1313, body_length=8)
            wo = run_canonical_bug("WO", threads, TRIALS, seed=1313, body_length=8)
            rows.append(
                {
                    "n": threads,
                    "SC Pr[bug]": sc.manifestation.estimate,
                    "WO Pr[bug]": wo.manifestation.estimate,
                    "survival gap (SC - WO)": wo.manifestation.estimate
                    - sc.manifestation.estimate,
                }
            )
        return rows

    rows = run_once(compute)
    show(render_table(rows, precision=4, title="E10: machine thread scaling"))
    sc_curve = [float(row["SC Pr[bug]"]) for row in rows]
    wo_curve = [float(row["WO Pr[bug]"]) for row in rows]
    assert sc_curve == sorted(sc_curve)
    assert wo_curve == sorted(wo_curve)
    # The absolute SC advantage shrinks as both saturate towards 1.
    gaps = [float(row["survival gap (SC - WO)"]) for row in rows]
    assert gaps[-1] < gaps[0]


def test_machine_fence_extension(run_once):
    """§7: fences reduce (but do not eliminate) manifestation under WO."""

    def compute():
        loose = run_canonical_bug("WO", 2, TRIALS, seed=1414, body_length=8)
        fenced = run_canonical_bug("WO", 2, TRIALS, seed=1414, body_length=8,
                                   fenced=True)
        return loose, fenced

    loose, fenced = run_once(compute)
    show(
        render_table(
            [
                {"variant": "unfenced", "Pr[bug]": loose.manifestation.estimate},
                {"variant": "fenced", "Pr[bug]": fenced.manifestation.estimate},
            ],
            precision=4,
            title="E10: fence extension (WO, n = 2)",
        )
    )
    assert fenced.manifestation.estimate <= loose.manifestation.estimate
    assert fenced.manifestation.estimate > 0.0  # the race itself remains


def test_machine_window_measurement(run_once):
    """Theorem 4.1's shape, measured on the machine: SC's window is a
    deterministic point mass; the store-buffer models add geometric-ish
    tails with PSO < TSO (the footnote-4 twist); WO is widest."""
    from repro.sim import measure_critical_windows

    def compute():
        return {
            model: measure_critical_windows(model, threads=2, trials=1500,
                                            seed=1616, body_length=6)
            for model in ("SC", "TSO", "PSO", "WO")
        }

    measurements = run_once(compute)
    rows = []
    for model, measurement in measurements.items():
        interval = measurement.mean_duration
        rows.append(
            {
                "model": model,
                "mean window (cycles)": interval.mean,
                "CI": f"[{interval.low:.3f}, {interval.high:.3f}]",
                "deterministic": measurement.deterministic,
                "manifest w/o overlap": measurement.manifest_without_overlap,
            }
        )
    show(render_table(rows, precision=4, title="E10: measured critical windows"))

    assert measurements["SC"].deterministic
    means = {model: m.mean_duration.mean for model, m in measurements.items()}
    assert means["SC"] < means["PSO"] < means["TSO"] < means["WO"]
    # §3.2: a lost update requires overlapping windows — zero exceptions.
    assert all(m.manifest_without_overlap == 0 for m in measurements.values())


def test_machine_drain_rate_ablation(run_once):
    """The machine analogue of the settle probability s: slower store-buffer
    drains widen the vulnerability window under TSO."""

    def compute():
        rows = []
        for drain in (0.9, 0.5, 0.1):
            result = run_canonical_bug("TSO", 2, TRIALS, seed=1515, body_length=8,
                                       drain_probability=drain)
            rows.append({"drain prob": drain, "Pr[bug]": result.manifestation.estimate})
        return rows

    rows = run_once(compute)
    show(render_table(rows, precision=4, title="E10: drain-rate ablation (TSO)"))
    bugs = [float(row["Pr[bug]"]) for row in rows]
    assert bugs == sorted(bugs)  # slower drain (listed later) -> more bugs

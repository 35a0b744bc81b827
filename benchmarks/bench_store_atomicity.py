"""E15 — store atomicity: checking the paper's §2.1 scoping decision.

The paper studies instruction reordering and "ignores store atomicity,
which is tangential to our present analysis".  This bench enumerates the
classic litmus tests under **SC ordering with non-atomic stores**
(the zoo's ``SC-NMCA``) and shows the two axes are genuinely orthogonal:

* non-atomicity alone re-opens SB and IRIW (no reordering involved),
* per-writer FIFO propagation keeps MP/LB/CoRR closed,
* composing the axes (WO ordering + non-atomic stores, ``WO-NMCA``)
  reaches a strict superset of either alone.
"""

from __future__ import annotations

from conftest import show

from repro.core import SC, WO
from repro.litmus import SC_NMCA, WO_NMCA, enumerate_outcomes, get_test
from repro.reporting import render_table

TESTS = ("SB", "MP", "LB", "CoRR", "IRIW", "WRC")


def _project(outcomes, reference):
    keys = {key for key, _ in reference}
    return {
        tuple(sorted((key, value) for key, value in outcome if key in keys))
        for outcome in outcomes
    }


def _reachable(test, model) -> bool:
    outcomes = enumerate_outcomes(list(test.programs), model)
    return test.relaxed_outcome in _project(outcomes, test.relaxed_outcome)


def test_atomicity_axis_matrix(run_once):
    def compute():
        rows = []
        for name in TESTS:
            test = get_test(name)
            rows.append(
                {
                    "test": name,
                    "SC + atomic": _reachable(test, SC),
                    "SC + non-atomic": _reachable(test, SC_NMCA),
                    "WO + atomic": _reachable(test, WO),
                    "WO + non-atomic": _reachable(test, WO_NMCA),
                }
            )
        return rows

    rows = run_once(compute)
    show(render_table(rows, title="E15: relaxed outcome reachable? (ordering x atomicity)"))
    by_test = {str(row["test"]): row for row in rows}

    # SC + atomic memory forbids everything (the baseline).
    assert not any(
        row["SC + atomic"] for row in rows
    )
    # Non-atomicity alone re-opens exactly the multi-copy tests.
    assert by_test["SB"]["SC + non-atomic"]
    assert by_test["IRIW"]["SC + non-atomic"]
    assert by_test["WRC"]["SC + non-atomic"]
    assert not by_test["MP"]["SC + non-atomic"]
    assert not by_test["LB"]["SC + non-atomic"]
    assert not by_test["CoRR"]["SC + non-atomic"]
    # Composition dominates each axis alone.
    for row in rows:
        assert row["WO + non-atomic"] >= row["WO + atomic"]
        assert row["WO + non-atomic"] >= row["SC + non-atomic"]


def test_non_atomic_outcome_counts_monotone(run_once):
    """Outcome sets grow from (SC, atomic) to (WO, non-atomic)."""

    def compute():
        rows = []
        for name in ("SB", "MP", "LB"):
            test = get_test(name)
            rows.append(
                {
                    "test": name,
                    "SC atomic": len(enumerate_outcomes(list(test.programs), SC)),
                    "SC non-atomic": len(
                        enumerate_outcomes(list(test.programs), SC_NMCA)
                    ),
                    "WO non-atomic": len(
                        enumerate_outcomes(list(test.programs), WO_NMCA)
                    ),
                }
            )
        return rows

    rows = run_once(compute)
    show(render_table(rows, title="E15: reachable-outcome counts"))
    for row in rows:
        assert row["SC atomic"] <= row["SC non-atomic"] <= row["WO non-atomic"]

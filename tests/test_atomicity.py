"""Tests for non-atomic store propagation: models whose ``atomicity``
flavor is ``"non_atomic"``, run by the one enumerator."""

from __future__ import annotations

import pytest

from repro.core import SC, TSO, MemoryModel
from repro.errors import LitmusError
from repro.litmus import (
    SC_NMCA,
    STORE_BUFFERING,
    WO_NMCA,
    enumerate_outcomes,
    get_test,
)
from repro.litmus.core import Machine
from repro.sim import Load, Store, ThreadProgram

#: TSO ordering with non-atomic stores (the zoo has SC and WO ones).
TSO_NMCA = MemoryModel("TSO-NMCA", TSO.relaxed_pairs, atomicity="non_atomic")


def project(outcomes, reference):
    keys = {key for key, _ in reference}
    return {
        tuple(sorted((key, value) for key, value in outcome if key in keys))
        for outcome in outcomes
    }


def relaxed_reachable(test, model) -> bool:
    outcomes = enumerate_outcomes(list(test.programs), model)
    return test.relaxed_outcome in project(outcomes, test.relaxed_outcome)


class TestBasics:
    def test_single_thread_sees_own_writes(self, source):
        program = ThreadProgram("T0", (Store("x", value=4), Load("r1", "x")))
        outcomes = enumerate_outcomes([program], SC_NMCA)
        assert outcomes == {(("T0:r1", 4),)}

    def test_initial_memory(self):
        program = ThreadProgram("T0", (Load("r1", "flag"),))
        outcomes = enumerate_outcomes([program], SC_NMCA, initial_memory={"flag": 2})
        assert outcomes == {(("T0:r1", 2),)}

    def test_remote_write_may_or_may_not_be_seen(self):
        programs = [
            ThreadProgram("T0", (Store("x", value=1),)),
            ThreadProgram("T1", (Load("r1", "x"),)),
        ]
        outcomes = enumerate_outcomes(programs, SC_NMCA)
        assert outcomes == {(("T1:r1", 0),), (("T1:r1", 1),)}

    def test_per_writer_fifo(self):
        """A reader never sees a writer's second store before its first."""
        programs = [
            ThreadProgram("T0", (Store("x", value=1), Store("y", value=1))),
            ThreadProgram("T1", (Load("r1", "y"), Load("r2", "x"))),
        ]
        outcomes = enumerate_outcomes(programs, SC_NMCA)
        assert (("T1:r1", 1), ("T1:r2", 0)) not in outcomes

    def test_empty_program_list_rejected(self):
        with pytest.raises(LitmusError):
            enumerate_outcomes([], SC_NMCA)


class TestScopingCheck:
    """E15: non-atomicity is an orthogonal risk axis."""

    def test_sb_allowed_without_any_reordering(self):
        assert relaxed_reachable(get_test("SB"), SC_NMCA)

    def test_iriw_allowed_without_any_reordering(self):
        assert relaxed_reachable(get_test("IRIW"), SC_NMCA)

    def test_wrc_allowed_without_any_reordering(self):
        """Causality is also a multi-copy property: independent channels
        let T2 see the republished flag before the original write."""
        assert relaxed_reachable(get_test("WRC"), SC_NMCA)

    def test_mp_stays_forbidden_under_sc(self):
        """Per-writer FIFO preserves the message-passing idiom."""
        assert not relaxed_reachable(get_test("MP"), SC_NMCA)

    def test_lb_stays_forbidden_under_sc(self):
        assert not relaxed_reachable(get_test("LB"), SC_NMCA)

    def test_corr_stays_forbidden_under_sc(self):
        assert not relaxed_reachable(get_test("CoRR"), SC_NMCA)

    def test_mp_allowed_once_reordering_added(self):
        """Composition: WO's reordering reopens MP even with FIFO channels."""
        assert relaxed_reachable(get_test("MP"), WO_NMCA)

    def test_non_atomic_superset_of_atomic(self):
        """Every atomic-memory outcome is reachable non-atomically too
        (propagate every store immediately)."""
        for name in ("SB", "MP", "LB"):
            test = get_test(name)
            atomic = enumerate_outcomes(list(test.programs), TSO)
            non_atomic = enumerate_outcomes(list(test.programs), TSO_NMCA)
            keys = {key for key, _ in next(iter(atomic))}
            assert project(atomic, tuple((key, 0) for key in keys)) <= project(
                non_atomic, tuple((key, 0) for key in keys)
            ), name


class TestFenceDrain:
    """A full fence drains the thread's *outgoing* propagation channels:
    it may only execute once every other thread has received all of this
    thread's earlier stores.  (It always ordered the thread's own view;
    without the drain it was a no-op toward other threads, and fully
    fenced SB stayed reachable under SC — fences could not restore SC on
    non-atomic memory.)
    """

    def test_fully_fenced_sb_forbidden_without_reordering(self):
        assert not relaxed_reachable(get_test("SB+FF"), SC_NMCA)

    def test_unfenced_sb_still_reachable(self):
        """The drain must not over-restrict: without fences, delayed
        propagation still exposes the relaxed SB outcome under SC."""
        assert relaxed_reachable(get_test("SB"), SC_NMCA)

    def test_fully_fenced_mp_stays_forbidden(self):
        assert not relaxed_reachable(get_test("MP+FF"), SC_NMCA)

    def test_fences_only_restrict(self):
        """Fencing never adds outcomes: fenced SB's outcome set is a
        subset of unfenced SB's (projected onto the observed registers)."""
        sb, fenced = get_test("SB"), get_test("SB+FF")
        reference = sb.relaxed_outcome
        unfenced = project(
            enumerate_outcomes(list(sb.programs), SC_NMCA), reference)
        drained = project(
            enumerate_outcomes(list(fenced.programs), SC_NMCA), reference)
        assert drained <= unfenced
        assert drained < unfenced  # the relaxed outcome is gone


class TestTheModelSaysWhichStores:
    """The model's ``atomicity`` flavor alone picks the store semantics."""

    def test_sb_under_sc_nmca_has_the_non_atomic_outcome(self):
        """Atomic SC reaches 3 SB outcomes; SC-NMCA adds r1 = r2 = 0."""
        programs = list(STORE_BUFFERING.programs)
        atomic = enumerate_outcomes(programs, SC)
        non_atomic = enumerate_outcomes(programs, SC_NMCA)
        assert len(atomic) == 3 and len(non_atomic) == 4
        assert non_atomic - atomic == {(("T0:r1", 0), ("T1:r2", 0))}

    def test_observed_memory_is_refused_under_non_atomic_stores(self):
        test = get_test("2+2W")
        assert test.observed_locations
        args = (list(test.programs), WO_NMCA, dict(test.initial_memory),
                test.observed_locations)
        with pytest.raises(LitmusError, match="WO-NMCA"):
            enumerate_outcomes(*args)
        with pytest.raises(LitmusError, match="WO-NMCA"):
            Machine(*args)
        # The same test runs under the atomic model with that ordering.
        assert enumerate_outcomes(list(test.programs), SC,
                                  dict(test.initial_memory),
                                  test.observed_locations)

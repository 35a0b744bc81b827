"""The exact outcome law of the sampled walk, and a χ² test of the sampler.

:meth:`repro.litmus.core.Machine.sample` draws one legal order per
thread uniformly (by rank in :meth:`~repro.litmus.core.Machine.orders`)
and then schedules: with atomic stores thread ``k`` runs next with
probability ``remaining_k / total``; with non-atomic stores the next
event is uniform over the ready next operations and the non-empty
channels.  :func:`outcome_law` computes the law that chain puts on final
outcomes exactly, with :class:`~fractions.Fraction` weights, from the
step semantics alone (``step``/``ready``/``deliver``/``outcome``).  It
shares no code with the sampled walk or its
:class:`~repro.litmus.core.BlockReader`, so a sampler that draws orders
or schedules with the wrong probabilities fails the χ² test below even
when every outcome it reaches is legal — which containment and coverage
checks cannot see.

``benchmarks/nightly_deep_check.py`` runs the same oracle over the
classics × the paper models and a pinned family × the full zoo.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from scipy.stats import chisquare

from repro.litmus import (
    FamilySpec,
    explore_random,
    family_member,
    get_test,
    get_zoo_model,
)
from repro.litmus.core import Machine, Outcome

#: Trials and seed of the sampled tables tested against the exact law.
TRIALS, SEED = 20_000, 5

#: The χ² p-value under which a sampled table rejects the exact law.
MIN_P = 1e-3


def _freeze(rows) -> tuple:
    return tuple(map(tuple, rows))


def _compiled(test, model) -> Machine:
    """``test`` compiled for ``model`` the way random mode compiles it."""
    return Machine(test.programs, model, test.initial_memory,
                   test.observed_locations)


def outcome_law(test, model) -> dict[Outcome, Fraction]:
    """The exact law of the sampled walk's final outcome.

    Sums, over every combination of per-thread orders (each weighted
    ``1 / ∏ counts``), a memoised walk over ``(remaining orders, views,
    channels, registers)`` that takes the sampled walk's own step
    probabilities.  The remaining order suffixes stand in for the
    program counters, so combinations that agree on what is left share
    the memo.
    """
    machine = _compiled(test, model)
    n, ops = machine.n, machine.ops
    memo: dict[tuple, dict[Outcome, Fraction]] = {}

    def walk(suffixes, views, channels, registers) -> dict[Outcome, Fraction]:
        state = (suffixes, views, channels, registers)
        if state in memo:
            return memo[state]
        if machine.atomic:
            total = sum(map(len, suffixes))
            moves = [(Fraction(len(left), total), thread)
                     for thread, left in enumerate(suffixes) if left]
        else:
            events = [thread for thread, left in enumerate(suffixes)
                      if left and machine.ready(channels, thread,
                                                ops[thread][left[0]])]
            events += [n + channel for channel, queue in enumerate(channels)
                       if queue]
            moves = [(Fraction(1, len(events)), event) for event in events]
        law: dict[Outcome, Fraction] = {}
        if not moves:
            law[machine.outcome(views, registers)] = Fraction(1)
        for weight, event in moves:
            new_views = list(map(list, views))
            new_channels = list(map(list, channels))
            new_registers, after = list(registers), suffixes
            if event >= n:
                machine.deliver(new_views, new_channels, event - n)
            else:
                machine.step(new_views, new_channels, new_registers, event,
                             ops[event][suffixes[event][0]])
                after = (*suffixes[:event], suffixes[event][1:],
                         *suffixes[event + 1:])
            for outcome, p in walk(after, _freeze(new_views),
                                   _freeze(new_channels),
                                   tuple(new_registers)).items():
                law[outcome] = law.get(outcome, 0) + weight * p
        memo[state] = law
        return law

    orders = machine.orders()
    views, channels, registers = machine.start()
    start = (_freeze(views), _freeze(channels), tuple(registers))
    weight = Fraction(1, math.prod(len(choices) for choices in orders))
    law: dict[Outcome, Fraction] = {}
    for ranks in itertools.product(*map(range, map(len, orders))):
        suffixes = tuple(choices[rank] for choices, rank in zip(orders, ranks))
        for outcome, p in walk(suffixes, *start).items():
            law[outcome] = law.get(outcome, 0) + weight * p
    return law


def law_p_value(table, law: dict[Outcome, Fraction]) -> float:
    """χ² p-value of a sampled frequency table against the exact law."""
    escaped = table.support - set(law)
    assert not escaped, f"sampled outcomes outside the law: {escaped}"
    outcomes = sorted(law)
    return float(chisquare([table.count(outcome) for outcome in outcomes],
                           [float(law[outcome] * table.trials)
                            for outcome in outcomes]).pvalue)


#: Member 1 of a fenced 3-thread family at family seed 2 (also pinned in
#: ``tests/data/litmus_sampler_pins.json``).
MEMBER = family_member(FamilySpec(threads=3, ops_per_thread=4, spacing=1,
                                  fence_density=0.3), 2, 1)

POINTS = [
    ("SB", "TSO"), ("MP", "PSO"), ("IRIW", "WO-NMCA"), ("SB", "SC-NMCA"),
    ("WRC", "WO-NMCA"), ("2+2W", "PSO"), ("LB", "WO"),
    (MEMBER, "TSO"), (MEMBER, "WO"),
]


def _point_id(point) -> str:
    test, model = point
    return f"{getattr(test, 'name', test)}/{model}"


@pytest.mark.parametrize("point", POINTS, ids=_point_id)
def test_sampler_follows_the_exact_law(point):
    test, model = point
    test = get_test(test) if isinstance(test, str) else test
    model = get_zoo_model(model)
    law = outcome_law(test, model)
    assert sum(law.values()) == 1
    assert set(law) == _compiled(test, model).reachable()
    table = explore_random(test, model, TRIALS, seed=SEED)
    assert law_p_value(table, law) >= MIN_P

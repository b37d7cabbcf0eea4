"""Equivalence property: incremental demand maintenance vs naive
recompute, under arbitrary dynamics-op interleavings.

The :class:`~repro.core.demand.DemandLedger` (and the dirty-set
restricted reconciliation it enables in
:class:`~repro.core.dynamics.TopologyManager`) must be *byte-identical*
to the from-scratch reference path of :mod:`repro.verify.reference`
after every op: same ``link_demands`` dict,
same schedule, same ledger-vs-taskset accumulator state.  The
summation-order contract of :mod:`repro.net.tasks` (exact fixed-point
integer accumulation) is what makes this an equality, not an
approximation — these tests are the enforcement.

Two generators drive the property: hypothesis-drawn fuzz scenarios
(the same generator the fuzzing harness replays from its corpus, plus
drawn prefix truncation and appended rate changes for extra
interleavings), and a fixed replay sweep of the first corpus seeds so
every CI run covers a stable base load.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import InsufficientResourcesError
from repro.core.dynamics import TopologyManager
from repro.core.manager import HarpNetwork
from repro.verify.fuzz import _apply_op
from repro.verify.generators import DynamicsOp, generate_scenario
from repro.verify.reference import (
    ReferenceHarpNetwork,
    ReferenceTopologyManager,
)


def _build(scenario, incremental):
    network_cls = HarpNetwork if incremental else ReferenceHarpNetwork
    manager_cls = TopologyManager if incremental else ReferenceTopologyManager
    harp = network_cls(
        scenario.topology(),
        scenario.task_set(),
        scenario.config(),
        case1_slack=scenario.case1_slack,
        distribute_slack=scenario.distribute_slack,
    )
    harp.allocate()
    return harp, manager_cls(harp)


def _schedule_state(harp):
    return {
        link: tuple(sorted(harp.schedule.cells_of(link)))
        for link in harp.schedule.links
    }


def _assert_equivalent(harp_inc, harp_naive, context):
    assert harp_inc.link_demands == harp_naive.link_demands, context
    assert _schedule_state(harp_inc) == _schedule_state(harp_naive), context
    # The ledger's own oracle: accumulators match a fresh recompute.
    harp_inc.demand_ledger.verify(harp_inc.topology, harp_inc.task_set)


def _run_equivalence(scenario, ops):
    """Drive both paths through the same op interleaving, comparing
    after every op (including rejected/infeasible outcomes)."""
    try:
        harp_inc, manager_inc = _build(scenario, incremental=True)
        harp_naive, manager_naive = _build(scenario, incremental=False)
    except InsufficientResourcesError:
        return 0  # infeasible bootstrap: nothing to compare
    _assert_equivalent(harp_inc, harp_naive, "after bootstrap")
    applied = 0
    for i, op in enumerate(ops):
        outcomes = []
        for harp, manager in (
            (harp_inc, manager_inc),
            (harp_naive, manager_naive),
        ):
            try:
                _apply_op(harp, manager, op)
                outcomes.append("ok")
            except InsufficientResourcesError:
                outcomes.append("infeasible")
            except KeyError:
                # e.g. a rate change aimed at a task a prior detach
                # removed — must reject identically on both paths.
                outcomes.append("missing")
        assert outcomes[0] == outcomes[1], f"op {i} diverged: {outcomes}"
        if outcomes[0] == "infeasible":
            return applied  # failed re-bootstrap: no state to audit
        _assert_equivalent(
            harp_inc, harp_naive, f"after op {i} ({op.kind} {op.node})"
        )
        applied += 1
    return applied


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 5000),
    keep=st.integers(1, 12),
    extra_rates=st.lists(
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), max_size=3
    ),
)
def test_arbitrary_interleavings_byte_identical(seed, keep, extra_rates):
    """Fuzz-generated dynamics scripts, truncated and extended with
    drawn rate changes, produce identical demands and schedules on
    both paths after every op."""
    scenario = generate_scenario(seed)
    ops = list(scenario.ops[:keep])
    live = [spec.task_id for spec in scenario.tasks]
    rng = random.Random(seed)
    for rate in extra_rates:
        if live:
            ops.append(
                DynamicsOp("rate_change", rng.choice(live), rate=rate)
            )
    _run_equivalence(scenario, ops)


@pytest.mark.parametrize("seed", range(20))
def test_corpus_replay_byte_identical(seed):
    """The stable corpus sweep: the first generator seeds replay with
    both paths in every CI run (the hypothesis test above explores a
    wider seed space probabilistically)."""
    scenario = generate_scenario(seed)
    _run_equivalence(scenario, scenario.ops)


def test_ledger_tracks_full_storm():
    """A longer mixed storm on one network: the ledger never rebuilds
    away from the naive recompute (verify() after every op)."""
    scenario = generate_scenario(97)
    applied = _run_equivalence(scenario, scenario.ops * 2)
    assert applied >= 1

"""Equivalence property: the region-scoped certificate vs the full one.

:meth:`HarpNetwork.certify` checks only what the partition table and the
schedule journalled since the last certificate; :meth:`HarpNetwork.
validate` checks everything.  They must give the same verdict after
every dynamics op:

* over seeded interleavings of rate_change/attach/detach/reparent, the
  scoped check alone (not its fall-back to the full one) agrees with the
  full verdict after every op;
* mutants planted in an op's touched region — a double-booked cell, a
  half-duplex node conflict, an escaped child partition, an overlapping
  sibling and an overlapping gateway top-level partition — are rejected
  by both with the same exception type.  Each mutant's own journal
  entries are dropped, so only the op's touches can reveal it;
* a fresh journal (after ``allocate``, ``rebootstrap``, a rejected
  escalation's rollback, or a serialisation load) makes the next
  certificate the full one.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import InsufficientResourcesError
from repro.core.dynamics import TopologyManager
from repro.core.manager import HarpNetwork
from repro.net.serialization import (
    dump_partitions,
    dump_schedule,
    load_partitions,
    load_schedule,
)
from repro.net.slotframe import Cell, SlotframeConfig
from repro.net.tasks import e2e_task_per_node
from repro.net.topology import Direction, LinkRef, layered_random_tree
from repro.packing.geometry import PlacedRect
from repro.verify.generators import generate_scenario

RATES = (0.5, 1.0, 1.5, 2.0, 3.0)


def _full_verdict(harp):
    """The full certificate's verdict without clearing any journal:
    None, or the type of the exception it raises."""
    try:
        harp.partitions.validate_isolation(harp.topology)
        if not harp.allow_overflow:
            harp.schedule.validate_collision_free(harp.topology)
    except Exception as exc:  # the verdict is the exception type
        return type(exc)
    return None


class ProbedNetwork(HarpNetwork):
    """A network that, at every certificate, optionally plants a mutant
    and records the scoped check, the full verdict and what
    :meth:`certify` itself concluded."""

    plant = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records = []

    def certify(self):
        dirty_all = self.partitions.journal is None or (
            self.schedule.journal is None
        )
        planted = None
        if self.plant is not None and not dirty_all:
            touched = (set(self.partitions.journal), set(self.schedule.journal))
            planted = self.plant(self)
            if planted is not None:
                self.plant = None
                # Forget the mutant's own writes: only the op's touched
                # region may reveal it.
                self.partitions.journal.intersection_update(touched[0])
                self.schedule.journal.intersection_update(touched[1])
        scoped_clean = self.partitions.touched_isolated(self.topology) and (
            self.allow_overflow
            or self.schedule.touched_collision_free(self.topology)
        )
        full = _full_verdict(self)
        record = {
            "planted": planted,
            "dirty_all": dirty_all,
            "scoped_clean": scoped_clean,
            "full": full,
            "certify": None,
        }
        self.records.append(record)
        try:
            super().certify()
        except Exception as exc:
            record["certify"] = type(exc)
            raise


def _assert_records_agree(records):
    for i, record in enumerate(records):
        assert record["certify"] is record["full"], (i, record)
        if not record["dirty_all"]:
            assert record["scoped_clean"] == (record["full"] is None), (
                i, record,
            )


def _build(scenario):
    harp = ProbedNetwork(
        scenario.topology(),
        scenario.task_set(),
        scenario.config(),
        case1_slack=scenario.case1_slack,
        distribute_slack=scenario.distribute_slack,
    )
    harp.allocate()
    harp.validate()  # open the first journal window
    return harp, TopologyManager(harp)


def _random_op(harp, rng):
    """A valid op against the network's current state."""
    topology = harp.topology
    devices = list(topology.device_nodes)
    kind = rng.choice(("rate_change", "attach", "detach", "reparent"))
    if kind == "rate_change" and len(harp.task_set):
        task = rng.choice(sorted(t.task_id for t in harp.task_set))
        return ("rate_change", task, 0, rng.choice(RATES))
    if kind == "detach" and len(devices) > 2:
        node = rng.choice(devices)
        if len(devices) - len(topology.subtree_span(node)) >= 1:
            return ("detach", node, 0, 0.0)
    if kind == "reparent" and devices:
        node = rng.choice(devices)
        span = set(topology.subtree_span(node))
        parents = [
            p for p in topology.nodes
            if p not in span and p != topology.parent_of(node)
        ]
        if parents:
            return ("reparent", node, rng.choice(parents), 0.0)
    return (
        "attach", max(topology.nodes) + 1, rng.choice(topology.nodes),
        rng.choice(RATES),
    )


def _run(harp, manager, rng, ops, stop_after_plant=False):
    """Apply ``ops`` random ops; returns the records of certificates."""
    for _ in range(ops):
        kind, node, parent, rate = _random_op(harp, rng)
        try:
            manager.apply_event(kind, node, parent, rate)
        except InsufficientResourcesError:
            break  # a failed re-bootstrap: no state left to certify
        except Exception:
            # A mutant planted in a rate change raises out of it; the
            # network is then broken on purpose.
            if harp.records and harp.records[-1]["planted"]:
                break
            raise
        if stop_after_plant and any(r["planted"] for r in harp.records):
            break
    return harp.records


# ----------------------------------------------------------------------
# organic interleavings
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000), ops=st.integers(1, 14))
def test_scoped_verdict_equals_full_after_every_op(seed, ops):
    try:
        harp, manager = _build(generate_scenario(seed))
    except InsufficientResourcesError:
        return
    records = _run(harp, manager, random.Random(seed), ops)
    _assert_records_agree(records)


@pytest.mark.parametrize("seed", range(8))
def test_corpus_interleavings_agree(seed):
    """A stable sweep: every CI run covers these seeds."""
    try:
        harp, manager = _build(generate_scenario(seed))
    except InsufficientResourcesError:
        pytest.skip("infeasible bootstrap")
    records = _run(harp, manager, random.Random(seed), 10)
    _assert_records_agree(records)
    assert any(not r["dirty_all"] for r in records)


# ----------------------------------------------------------------------
# mutants in the op's touched region
# ----------------------------------------------------------------------


def _touched_cells(harp):
    schedule = harp.schedule
    return [
        (link, cell)
        for link in sorted(
            schedule.journal, key=lambda l: (l.child, l.direction.value)
        )
        for cell in schedule.cells_of(link)
    ]


def plant_double_booked_cell(harp):
    schedule = harp.schedule
    for link, cell in _touched_cells(harp):
        for other in schedule.links:
            if other != link:
                schedule.assign(cell, other)
                return f"{cell} double-booked to {other}"
    return None


def plant_node_conflict(harp):
    """The touched link's opposite-direction twin shares both endpoints;
    give it a free cell of the same slot on another channel."""
    schedule = harp.schedule
    for link, cell in _touched_cells(harp):
        twin = LinkRef(
            link.child,
            Direction.DOWN if link.direction is Direction.UP else Direction.UP,
        )
        for channel in range(schedule.config.num_channels):
            free = Cell(cell.slot, channel)
            if channel != cell.channel and not schedule.links_in_cell(free):
                schedule.assign(free, twin)
                return f"{twin} active beside {link} in slot {cell.slot}"
    return None


def _touched_partitions(harp):
    table = harp.partitions
    for key in sorted(table.journal, key=lambda k: (k[0], k[1], k[2].value)):
        part = table.get(*key)
        if part is not None and key[0] in harp.topology:
            yield part


def plant_escaped_child(harp):
    """Shift an untouched child partition of a touched partition outside
    it, so only the parent's containment check can see it."""
    table = harp.partitions
    for part in _touched_partitions(harp):
        for child in harp.topology.children_of(part.owner):
            inner = table.get(child, part.layer, part.direction)
            if (
                inner is not None
                and not inner.region.is_empty
                and inner.key not in table.journal
            ):
                r = inner.region
                table.set(inner.moved_to(PlacedRect(
                    part.region.x2, r.y, r.width, r.height,
                )))
                return f"{inner} moved outside {part}"
    return None


def plant_overlapping_sibling(harp):
    """Move an untouched sibling of a touched partition onto it."""
    table = harp.partitions
    topology = harp.topology
    for part in _touched_partitions(harp):
        if part.owner == topology.gateway_id or part.region.is_empty:
            continue
        for sibling in topology.children_of(topology.parent_of(part.owner)):
            other = table.get(sibling, part.layer, part.direction)
            if other is not None and other.key not in table.journal:
                table.set(other.moved_to(part.region))
                return f"{other} moved onto {part}"
    return None


def plant_overlapping_gateway_partition(harp):
    """Move an untouched gateway top-level partition onto a touched
    one."""
    table = harp.partitions
    gateway = harp.topology.gateway_id
    for part in _touched_partitions(harp):
        if part.owner != gateway or part.region.is_empty:
            continue
        for other in table.of_node(gateway):
            if other.key not in table.journal:
                table.set(other.moved_to(part.region))
                return f"{other} moved onto {part}"
    return None


MUTANTS = {
    "double_booked_cell": plant_double_booked_cell,
    "node_conflict": plant_node_conflict,
    "escaped_child": plant_escaped_child,
    "overlapping_sibling": plant_overlapping_sibling,
    "overlapping_gateway": plant_overlapping_gateway_partition,
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutants_in_touched_region_rejected_by_both(mutant):
    """Each mutant is planted by the first op that touches a suitable
    region, across seeds, until ten plants have been judged."""
    judged = 0
    for seed in range(200):
        try:
            harp, manager = _build(generate_scenario(seed))
        except InsufficientResourcesError:
            continue
        harp.plant = MUTANTS[mutant]
        records = _run(
            harp, manager, random.Random(seed), 12, stop_after_plant=True
        )
        planted = [r for r in records if r["planted"]]
        if not planted:
            continue
        record = planted[0]
        assert record["full"] is not None, record
        assert record["certify"] is record["full"], record
        assert not record["scoped_clean"], record
        judged += 1
        if judged == 10:
            break
    assert judged == 10, f"only {judged} {mutant} mutants planted"


# ----------------------------------------------------------------------
# a fresh journal makes the next certificate the full one
# ----------------------------------------------------------------------


def _small_network():
    topology = layered_random_tree(30, 4, random.Random(3))
    harp = HarpNetwork(
        topology, e2e_task_per_node(topology), SlotframeConfig(num_slots=199),
        case1_slack=1, distribute_slack=True,
    )
    harp.allocate()
    return harp


def _full_runs(harp):
    """How many times the next :meth:`certify` runs the full check."""
    calls = []
    original = harp.validate

    def counting():
        calls.append(1)
        original()

    harp.validate = counting
    try:
        harp.certify()
    finally:
        del harp.validate
    return len(calls)


def test_first_certificate_after_allocate_is_full():
    harp = _small_network()
    assert harp.partitions.journal is None and harp.schedule.journal is None
    assert _full_runs(harp) == 1
    assert _full_runs(harp) == 0


def test_first_certificate_after_rebootstrap_is_full():
    harp = _small_network()
    harp.validate()
    harp.rebootstrap()
    assert _full_runs(harp) == 1


def test_first_certificate_after_restore_is_full():
    harp = _small_network()
    harp.validate()
    node = next(
        n for n in harp.topology.non_leaf_nodes()
        if n != harp.topology.gateway_id
    )
    outcome = harp.adjuster.request_component_increase(
        node, harp.topology.node_layer(node), Direction.UP,
        harp.config.data_slots + 1,
    )
    assert outcome.case == "rejected"
    assert harp.partitions.journal is None
    assert _full_runs(harp) == 1


def test_first_certificate_after_load_is_full():
    harp = _small_network()
    harp.validate()
    harp.partitions = load_partitions(dump_partitions(harp.partitions))
    harp._schedule = load_schedule(dump_schedule(harp.schedule))
    assert harp.partitions.journal is None and harp.schedule.journal is None
    assert _full_runs(harp) == 1
    assert _full_runs(harp) == 0


def test_copies_count_everything_as_touched():
    harp = _small_network()
    harp.validate()
    assert harp.partitions.copy().journal is None
    assert harp.schedule.copy().journal is None

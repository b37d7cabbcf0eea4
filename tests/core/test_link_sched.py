"""Unit tests for distributed schedule generation (Sec. IV-D)."""

import random

import pytest

from repro.core.allocation import allocate_partitions
from repro.core.interface_gen import generate_interfaces
from repro.core.link_sched import (
    ScheduleGenerationError,
    _interleaved_assignment,
    build_schedule,
    edf_priority,
    id_priority,
    partition_cells,
    rate_monotonic_priority,
    schedule_node_links,
)
from repro.core.partition import Partition
from repro.net.slotframe import Cell, SlotframeConfig
from repro.net.tasks import Task, TaskSet, e2e_task_per_node
from repro.net.topology import Direction, LinkRef, TreeTopology
from repro.packing.geometry import PlacedRect


@pytest.fixture
def tree():
    return TreeTopology({1: 0, 2: 0, 3: 1})


@pytest.fixture
def config():
    return SlotframeConfig(num_slots=40, num_channels=8)


class TestPartitionCells:
    def test_slot_major_enumeration(self, config):
        part = Partition(1, 1, Direction.UP, PlacedRect(10, 2, 2, 2))
        cells = partition_cells(part, config)
        assert cells == [Cell(10, 2), Cell(10, 3), Cell(11, 2), Cell(11, 3)]

    def test_wrap_slots(self, config):
        part = Partition(1, 1, Direction.UP, PlacedRect(39, 0, 3, 1))
        cells = partition_cells(part, config, wrap_slots=40)
        assert [c.slot for c in cells] == [39, 0, 1]


class TestPriorities:
    def test_rate_monotonic_orders_by_period(self, tree):
        tasks = TaskSet([
            Task(task_id=1, source=1, rate=1.0, echo=False),
            Task(task_id=2, source=2, rate=4.0, echo=False),
        ])
        priority = rate_monotonic_priority(tasks)
        fast = priority(tree, LinkRef(2, Direction.UP))
        slow = priority(tree, LinkRef(1, Direction.UP))
        assert fast < slow  # higher rate = shorter period = earlier cells

    def test_edf_priority(self, tree):
        priority = edf_priority({1: 5.0, 2: 1.0})
        assert priority(tree, LinkRef(2, Direction.UP)) < priority(
            tree, LinkRef(1, Direction.UP)
        )

    def test_id_priority_deterministic(self, tree):
        priority = id_priority()
        assert priority(tree, LinkRef(1, Direction.UP)) < priority(
            tree, LinkRef(2, Direction.UP)
        )


class TestScheduleNodeLinks:
    def test_demands_met_exactly(self, tree, config):
        part = Partition(0, 1, Direction.UP, PlacedRect(0, 0, 6, 1))
        assignment = schedule_node_links(
            tree, 0, Direction.UP, part, {1: 2, 2: 3}, config, id_priority()
        )
        assert len(assignment[1]) == 2
        assert len(assignment[2]) == 3
        all_cells = assignment[1] + assignment[2]
        assert len(set(all_cells)) == 5

    def test_higher_priority_gets_earlier_cells(self, tree, config):
        tasks = TaskSet([
            Task(task_id=1, source=1, rate=1.0, echo=False),
            Task(task_id=2, source=2, rate=4.0, echo=False),
        ])
        part = Partition(0, 1, Direction.UP, PlacedRect(0, 0, 6, 1))
        assignment = schedule_node_links(
            tree, 0, Direction.UP, part, {1: 1, 2: 1}, config,
            rate_monotonic_priority(tasks),
        )
        assert assignment[2][0].slot < assignment[1][0].slot

    def test_overflowing_demand_raises(self, tree, config):
        part = Partition(0, 1, Direction.UP, PlacedRect(0, 0, 2, 1))
        with pytest.raises(ScheduleGenerationError):
            schedule_node_links(
                tree, 0, Direction.UP, part, {1: 2, 2: 2}, config,
                id_priority(),
            )


def _full_enumeration_schedule(
    topology, node, direction, partition, demands, config, priority,
    wrap_slots, distribute_idle, interleave,
):
    """``schedule_node_links`` as it was before demand-sized
    enumeration: every cell of the partition is enumerated first."""
    cells = partition_cells(partition, config, wrap_slots)
    links = sorted(
        (LinkRef(child, direction) for child in demands),
        key=lambda link: priority(topology, link),
    )
    total = sum(demands.values())
    if interleave:
        assignment = _interleaved_assignment(links, demands, cells)
    else:
        assignment, cursor = {}, 0
        for link in links:
            assignment[link.child] = cells[cursor:cursor + demands[link.child]]
            cursor += demands[link.child]
    if distribute_idle and links:
        for i, cell in enumerate(cells[total:]):
            assignment[links[i % len(links)].child].append(cell)
    return assignment


class TestDemandSizedEnumeration:
    """Enumerating only the demanded cells changes no assignment."""

    @pytest.mark.parametrize("wrap_slots", [None, 9])
    @pytest.mark.parametrize("interleave", [False, True])
    @pytest.mark.parametrize("distribute_idle", [False, True])
    def test_identical_to_full_enumeration(
        self, tree, config, wrap_slots, interleave, distribute_idle
    ):
        rng = random.Random(11)
        for _ in range(40):
            region = PlacedRect(
                rng.randrange(0, 30), rng.randrange(0, 4),
                rng.randrange(1, 10), rng.randrange(1, 5),
            )
            part = Partition(0, 1, Direction.UP, region)
            demands = {
                child: rng.randrange(0, 6) for child in (1, 2)
            }
            demands = {c: n for c, n in demands.items() if n}
            if sum(demands.values()) > region.area:
                continue
            args = (
                tree, 0, Direction.UP, part, demands, config, id_priority(),
                wrap_slots, distribute_idle, interleave,
            )
            assert schedule_node_links(*args) == (
                _full_enumeration_schedule(*args)
            )

    def test_limit_is_a_prefix_of_the_full_enumeration(self, config):
        part = Partition(0, 1, Direction.UP, PlacedRect(3, 1, 5, 3))
        full = partition_cells(part, config, wrap_slots=6)
        for limit in range(0, part.capacity + 1):
            assert partition_cells(part, config, 6, limit) == full[:limit]

    def test_over_capacity_error_text_unchanged(self, tree, config):
        part = Partition(0, 1, Direction.UP, PlacedRect(0, 0, 2, 1))
        with pytest.raises(ScheduleGenerationError) as err:
            schedule_node_links(
                tree, 0, Direction.UP, part, {1: 2, 2: 2}, config,
                id_priority(),
            )
        assert str(err.value) == (
            "node 0 (up, layer 1): demand 4 exceeds partition capacity 2"
        )


class TestBuildSchedule:
    def test_collision_free_end_to_end(self, tree, config):
        tasks = e2e_task_per_node(tree, rate=1.0)
        demands = tasks.link_demands(tree)
        tables = {
            d: generate_interfaces(tree, demands, d, config.num_channels)
            for d in (Direction.UP, Direction.DOWN)
        }
        partitions, _ = allocate_partitions(tree, tables, config)
        schedule = build_schedule(tree, partitions, demands, config)
        schedule.validate_collision_free(tree)
        # Every link got exactly its demand.
        for link, count in demands.items():
            assert len(schedule.cells_of(link)) == count

    def test_cells_inside_owning_partition(self, tree, config):
        tasks = e2e_task_per_node(tree, rate=1.0)
        demands = tasks.link_demands(tree)
        tables = {
            d: generate_interfaces(tree, demands, d, config.num_channels)
            for d in (Direction.UP, Direction.DOWN)
        }
        partitions, _ = allocate_partitions(tree, tables, config)
        schedule = build_schedule(tree, partitions, demands, config)
        for link in schedule.links:
            parent = tree.parent_of(link.child)
            part = partitions.get(
                parent, tree.node_layer(parent), link.direction
            )
            for cell in schedule.cells_of(link):
                assert part.region.contains_cell(cell.slot, cell.channel)

    def test_missing_partition_raises(self, tree, config):
        from repro.core.partition import PartitionTable

        demands = {LinkRef(1, Direction.UP): 1}
        with pytest.raises(ScheduleGenerationError):
            build_schedule(tree, PartitionTable(), demands, config)

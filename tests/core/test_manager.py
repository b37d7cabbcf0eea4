"""Unit tests for the HarpNetwork manager."""

import pytest

from repro.core.dynamics import TopologyManager
from repro.core.link_sched import id_priority
from repro.core.manager import HarpNetwork
from repro.net.slotframe import ScheduleConflictError, SlotframeConfig
from repro.net.tasks import Task, TaskSet, e2e_task_per_node, tasks_on_nodes
from repro.net.topology import Direction, LinkRef, TreeTopology


@pytest.fixture
def tree():
    # 0 -> {1, 2}; 1 -> {3, 4}; 3 -> 5
    return TreeTopology({1: 0, 2: 0, 3: 1, 4: 1, 5: 3})


@pytest.fixture
def config():
    return SlotframeConfig(num_slots=80, num_channels=16)


class TestLifecycle:
    def test_schedule_requires_allocate(self, tree, config):
        harp = HarpNetwork(tree, e2e_task_per_node(tree), config)
        with pytest.raises(RuntimeError):
            _ = harp.schedule
        with pytest.raises(RuntimeError):
            _ = harp.adjuster

    def test_allocate_reports_messages(self, tree, config):
        harp = HarpNetwork(tree, e2e_task_per_node(tree), config)
        report = harp.allocate()
        # Non-leaf device nodes 1 and 3: one POST-intf each per direction,
        # one POST-part each (covering both directions).
        assert report.post_intf_messages == 4
        assert report.post_part_messages == 2
        assert report.total_messages == 6

    def test_validate_passes_after_allocate(self, tree, config):
        harp = HarpNetwork(tree, e2e_task_per_node(tree), config)
        harp.allocate()
        harp.validate()
        assert harp.collision_report().is_collision_free

    def test_demands_satisfied(self, tree, config):
        harp = HarpNetwork(tree, e2e_task_per_node(tree), config)
        harp.allocate()
        for link, demand in harp.link_demands.items():
            assert len(harp.schedule.cells_of(link)) == demand


class TestRateChanges:
    def test_increase_updates_demands_and_schedule(self, tree, config):
        harp = HarpNetwork(tree, e2e_task_per_node(tree), config)
        harp.allocate()
        report = harp.request_rate_change(5, 3.0)
        assert report.success
        harp.validate()
        # Link 5 -> 3 now needs 3 uplink cells.
        assert harp.link_demands[LinkRef(5, Direction.UP)] == 3
        assert len(harp.schedule.cells_of(LinkRef(5, Direction.UP))) == 3
        # Forwarding links grew too.
        assert harp.link_demands[LinkRef(1, Direction.UP)] == 6
        assert harp.task_set.by_id(5).rate == 3.0

    def test_decrease_releases_without_partition_messages(self, tree, config):
        harp = HarpNetwork(tree, e2e_task_per_node(tree), config)
        harp.allocate()
        harp.request_rate_change(5, 3.0)
        report = harp.request_rate_change(5, 1.0)
        assert report.success
        assert report.partition_messages == 0
        assert all(o.case == "release" for o in report.outcomes)
        harp.validate()
        assert len(harp.schedule.cells_of(LinkRef(5, Direction.UP))) == 1

    def test_noop_rate_change(self, tree, config):
        harp = HarpNetwork(tree, e2e_task_per_node(tree), config)
        harp.allocate()
        report = harp.request_rate_change(5, 1.0)
        assert report.success
        assert not report.outcomes

    def test_unknown_task_raises(self, tree, config):
        harp = HarpNetwork(tree, e2e_task_per_node(tree), config)
        harp.allocate()
        with pytest.raises(KeyError):
            harp.request_rate_change(99, 2.0)

    def test_uplink_only_task_touches_up_direction_only(self, tree, config):
        harp = HarpNetwork(tree, tasks_on_nodes([5, 4, 2]), config)
        harp.allocate()
        report = harp.request_rate_change(5, 2.0)
        assert report.success
        assert all(o.direction is Direction.UP for o in report.outcomes)
        harp.validate()

    def test_rejected_change_keeps_network_consistent(self, tree):
        tight = SlotframeConfig(num_slots=26, num_channels=16)
        harp = HarpNetwork(tree, e2e_task_per_node(tree), tight)
        harp.allocate()
        report = harp.request_rate_change(5, 12.0)
        assert not report.success
        harp.validate()
        # Schedule still covers the (restored) demands.
        for link, demand in harp.link_demands.items():
            assert len(harp.schedule.cells_of(link)) >= demand

    def test_sequence_of_changes(self, tree, config):
        harp = HarpNetwork(
            tree, e2e_task_per_node(tree), config,
            case1_slack=1, distribute_slack=True,
        )
        harp.allocate()
        for task_id, rate in [(5, 1.5), (4, 2.0), (5, 3.0), (2, 2.0), (5, 1.0)]:
            report = harp.request_rate_change(task_id, rate)
            assert report.success, (task_id, rate)
            harp.validate()


class TestSlackBehaviour:
    def test_slack_absorbs_small_increase(self, tree, config):
        harp = HarpNetwork(
            tree, e2e_task_per_node(tree), config, case1_slack=1
        )
        harp.allocate()
        report = harp.request_rate_change(5, 1.5)
        assert report.success
        assert report.partition_messages == 0
        harp.validate()

    def test_without_slack_same_increase_needs_partitions(self, tree, config):
        harp = HarpNetwork(tree, e2e_task_per_node(tree), config)
        harp.allocate()
        report = harp.request_rate_change(5, 1.5)
        assert report.success
        assert report.partition_messages > 0
        harp.validate()


class TestCallerPriority:
    """A caller's ``priority=`` survives dynamics ops (RM used to replace
    it after the first one)."""

    @staticmethod
    def _cell_order(harp, node, direction):
        """``node``'s children in the order of their first cells."""
        first = {
            child: harp.schedule.cells_of(LinkRef(child, direction))
            for child in harp.topology.children_of(node)
        }
        return sorted((c for c in first if first[c]), key=lambda c: first[c][0])

    def test_id_priority_kept_after_rate_change_and_attach(self, config):
        tree = TreeTopology({1: 0, 2: 0})
        # Child 2 has the shorter period: RM would schedule it first.
        tasks = TaskSet([
            Task(task_id=1, source=1, rate=1.0),
            Task(task_id=2, source=2, rate=2.0),
        ])
        priority = id_priority()
        harp = HarpNetwork(tree, tasks, config, priority=priority)
        harp.allocate()
        assert self._cell_order(harp, 0, Direction.UP) == [1, 2]

        assert harp.request_rate_change(2, 3.0).success
        assert harp.priority is priority
        assert self._cell_order(harp, 0, Direction.UP) == [1, 2]

        report = TopologyManager(harp).attach(
            3, 0, Task(task_id=3, source=3, rate=4.0)
        )
        assert report.success and not report.rebootstrapped
        assert harp.priority is priority
        for direction in (Direction.UP, Direction.DOWN):
            assert self._cell_order(harp, 0, direction) == [1, 2, 3]
        harp.validate()


class TestRateChangeCertificate:
    def test_rate_change_runs_the_scoped_certificate(self, tree, config):
        harp = HarpNetwork(tree, e2e_task_per_node(tree), config)
        harp.allocate()
        harp.validate()
        harp.request_rate_change(5, 2.0)
        # A passing certificate closed the journal window.
        assert harp.partitions.journal == set()
        assert harp.schedule.journal == set()

    def test_violation_after_rate_change_raises(self, tree, config):
        harp = HarpNetwork(tree, e2e_task_per_node(tree), config)
        harp.allocate()
        harp.validate()
        # A programming error that double-books a cell of a link the
        # rate change reschedules must surface, not be absorbed.
        original = harp._reschedule_node

        def buggy(node, direction):
            changed = original(node, direction)
            link = LinkRef(5, direction)
            cells = harp.schedule.cells_of(link)
            if node == 3 and cells:
                harp.schedule.assign(cells[0], LinkRef(4, direction))
            return changed

        harp._reschedule_node = buggy
        harp._adjuster.rescheduler = buggy
        with pytest.raises(ScheduleConflictError):
            harp.request_rate_change(5, 2.0)

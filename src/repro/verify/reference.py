"""Naive reference paths the production layers are certified against.

Each production layer runs one path; its slow-but-obvious twin lives
here, used only by the equivalence tests and the engine benchmark:

* :func:`run_slots_stepped` — the engine stepped slot by slot, the
  reference for :meth:`TSCHSimulator.run_slots`' event skipping;
* :class:`ReferenceHarpNetwork` / :class:`ReferenceTopologyManager` —
  per-link demands recomputed from scratch after every op, every
  manager re-checked and the full certificate run, the reference for
  the :class:`~repro.core.demand.DemandLedger` deltas, the dirty-set
  reconciliation and the region-scoped certificate.

Both pairs must agree byte-for-byte (``tests/net/test_engine_fastpath.py``
and ``tests/properties/test_demand_equivalence.py``).
"""

from __future__ import annotations

from typing import Mapping, Set

from ..core.dynamics import (
    TopologyChangeReport,
    TopologyManager,
    _IncrementalFailure,
)
from ..core.manager import HarpNetwork
from ..net.sim.engine import TSCHSimulator
from ..net.sim.metrics import MetricsCollector
from ..net.tasks import Task, TaskSet, demands_by_parent
from ..net.topology import Direction, LinkRef, TreeTopology


def run_slots_stepped(sim: TSCHSimulator, num_slots: int) -> MetricsCollector:
    """Advance ``sim`` by ``num_slots`` slots, stepping every slot."""
    end = sim.current_slot + num_slots
    while sim.current_slot < end:
        sim._step()
    return sim.metrics


def run_slotframes_stepped(
    sim: TSCHSimulator, num_slotframes: int
) -> MetricsCollector:
    """Advance ``sim`` by whole slotframes, stepping every slot."""
    return run_slots_stepped(sim, num_slotframes * sim.config.num_slots)


class ReferenceHarpNetwork(HarpNetwork):
    """A :class:`HarpNetwork` whose rate changes recompute every link's
    demand from the whole task set and run the full certificate."""

    def certify(self) -> None:
        self.validate()

    def _rate_change_demands(
        self, task: Task, new_rate: float, new_task_set: TaskSet
    ) -> Mapping[LinkRef, int]:
        return new_task_set.link_demands(self.topology)


class ReferenceTopologyManager(TopologyManager):
    """A :class:`TopologyManager` that recomputes demands from scratch,
    reconciles and verifies every manager, ignoring the dirty set, and
    certifies every op with the full :meth:`HarpNetwork.validate`."""

    def _certify(self) -> None:
        self.harp.validate()

    def _update_demands(
        self,
        kind: str,
        node: int,
        old_topology: TreeTopology,
        new_topology: TreeTopology,
        old_tasks: TaskSet,
        new_tasks: TaskSet,
    ) -> None:
        harp = self.harp
        harp.demand_ledger.rebuild(new_topology, new_tasks)
        harp.link_demands = dict(new_tasks.link_demands(new_topology))

    def _verify_coverage(self, dirty: Set[int]) -> None:
        harp = self.harp
        for link, demand in harp.link_demands.items():
            if len(harp.schedule.cells_of(link)) < demand:
                raise _IncrementalFailure(
                    f"link {link} holds fewer cells than its demand {demand}"
                )

    def _reconcile_managers(
        self, report: TopologyChangeReport, dirty: Set[int]
    ) -> None:
        harp = self.harp
        for direction in (Direction.UP, Direction.DOWN):
            per_parent = demands_by_parent(
                harp.topology, harp.link_demands, direction
            )
            for manager, demands in sorted(per_parent.items()):
                satisfied = all(
                    len(harp.schedule.cells_of(LinkRef(child, direction)))
                    >= cells
                    for child, cells in demands.items()
                )
                if not satisfied:
                    harp._reschedule_node(manager, direction)
            # Managers that lost all children must drop stale cells.
            for manager in harp.topology.non_leaf_nodes():
                if manager not in per_parent:
                    harp._reschedule_node(manager, direction)

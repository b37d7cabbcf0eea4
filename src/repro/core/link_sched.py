"""Distributed schedule generation (Sec. IV-D).

After partition allocation every non-leaf node owns a dedicated
layer-``l(V_i)`` partition — a one-channel row wide enough for all of its
child links.  The node assigns cells to links *locally*, with no
coordination beyond its own partition, using a pluggable real-time
policy.  The paper deploys Rate-Monotonic: links carrying
shorter-period (higher-rate) tasks get the earlier cells.  An EDF
variant is provided for the paper's future-work scenario of diverse
end-to-end deadlines.

Because ``n_s >= Σ r(e)`` by construction (Case 1), the assignment is
always feasible, and because partitions are isolated the union of all
locally generated schedules is collision-free — the property the
integration tests and Fig. 11 verify.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..net.slotframe import Cell, Schedule, SlotframeConfig
from ..net.tasks import TaskSet, demands_by_parent
from ..net.topology import Direction, LinkRef, TreeTopology
from .partition import Partition, PartitionTable

#: Priority function: (topology, link) -> sort key (ascending = earlier).
PriorityFn = Callable[[TreeTopology, LinkRef], Tuple]


class ScheduleGenerationError(RuntimeError):
    """A node's partition cannot hold its links' demands (should be
    impossible after a correct allocation)."""


def rate_monotonic_priority(task_set: TaskSet) -> PriorityFn:
    """RM priority: ascending minimum task period through the link
    (higher-rate links first), ties broken by child id.

    The per-link minimum period is memoized per topology: one pass over
    every task's routing path builds the whole link->period map, instead
    of re-walking all paths for every link queried (the dominant cost of
    schedule builds on large trees).  Topologies are treated as
    immutable — the repo's mutation APIs always produce a *new*
    TreeTopology — so the memo keys on object identity and keeps a
    strong reference to guard against id reuse.
    """
    memo: "OrderedDict[int, Tuple[TreeTopology, Dict[LinkRef, float]]]" = (
        OrderedDict()
    )

    def min_periods(topology: TreeTopology) -> Dict[LinkRef, float]:
        entry = memo.get(id(topology))
        if entry is not None and entry[0] is topology:
            return entry[1]
        table: Dict[LinkRef, float] = {}
        for task in task_set:
            period = task.period_slotframes
            for link in TaskSet.links_of_task(topology, task):
                best = table.get(link)
                if best is None or period < best:
                    table[link] = period
        memo[id(topology)] = (topology, table)
        while len(memo) > 4:   # heals/failovers retire old topologies
            memo.popitem(last=False)
        return table

    def priority(topology: TreeTopology, link: LinkRef) -> Tuple:
        return (min_periods(topology).get(link, math.inf), link.child)

    return priority


def edf_priority(deadlines: Mapping[int, float]) -> PriorityFn:
    """EDF-style priority from explicit per-task-source deadlines
    (slotframes); links serving tighter deadlines first."""

    def priority(topology: TreeTopology, link: LinkRef) -> Tuple:
        return (deadlines.get(link.child, math.inf), link.child)

    return priority


def id_priority() -> PriorityFn:
    """Deterministic fallback: order links by child id."""

    def priority(topology: TreeTopology, link: LinkRef) -> Tuple:
        return (link.child,)

    return priority


def partition_cells(
    partition: Partition,
    config: SlotframeConfig,
    wrap_slots: Optional[int] = None,
    limit: Optional[int] = None,
) -> List[Cell]:
    """Enumerate the cells of a partition, slot-major.

    ``wrap_slots`` maps virtual slots beyond the data sub-frame back into
    ``[0, wrap_slots)`` — overflow mode for the Fig. 11(b) study.  In
    normal operation partitions lie inside the frame and no wrapping
    occurs.  ``limit`` stops after that many cells (the first ``limit``
    of the full enumeration).
    """
    cells: List[Cell] = []
    region = partition.region
    channels = range(region.y, region.y2)
    if limit is None:
        limit = region.area
    for slot in range(region.x, region.x2):
        if len(cells) >= limit:
            break
        actual_slot = slot % wrap_slots if wrap_slots else slot
        for channel in channels:
            cells.append(Cell(actual_slot, channel))
    del cells[limit:]
    return cells


def schedule_node_links(
    topology: TreeTopology,
    node: int,
    direction: Direction,
    partition: Partition,
    demands: Mapping[int, int],
    config: SlotframeConfig,
    priority: PriorityFn,
    wrap_slots: Optional[int] = None,
    distribute_idle: bool = False,
    interleave: bool = False,
) -> Dict[int, List[Cell]]:
    """One node's local cell assignment: child id -> cells.

    Cells of the node's partition are handed out contiguously in priority
    order, each link receiving exactly its demand.  With
    ``distribute_idle``, the partition's leftover cells are additionally
    dealt round-robin (priority order) as retransmission headroom — a
    node owns its partition exclusively, so using every cell is free and
    lets lossy links drain their backlog.  Only the demanded cells are
    enumerated unless idle ones are dealt too.
    """
    total_demand = sum(demands.values())
    if total_demand > partition.capacity:
        raise ScheduleGenerationError(
            f"node {node} ({direction.value}, layer {partition.layer}): "
            f"demand {total_demand} exceeds partition capacity "
            f"{partition.capacity}"
        )
    cells = partition_cells(
        partition, config, wrap_slots,
        None if distribute_idle else total_demand,
    )
    links = sorted(
        (LinkRef(child, direction) for child in demands),
        key=lambda link: priority(topology, link),
    )
    if interleave:
        assignment = _interleaved_assignment(links, demands, cells)
        cursor = total_demand
    else:
        assignment = {}
        cursor = 0
        for link in links:
            count = demands[link.child]
            assignment[link.child] = cells[cursor:cursor + count]
            cursor += count
    if distribute_idle and links:
        for i, cell in enumerate(cells[cursor:]):
            assignment[links[i % len(links)].child].append(cell)
    return assignment


def _interleaved_assignment(
    links: List[LinkRef],
    demands: Mapping[int, int],
    cells: List[Cell],
) -> Dict[int, List[Cell]]:
    """Spread each link's cells across the partition (weighted
    round-robin dealing, priority first within each round).

    Contiguous blocks minimize bookkeeping but force a packet generated
    just after its link's block to wait almost a full slotframe; dealing
    the cells round-robin bounds that wait by roughly
    ``partition width / demand`` — essential for sub-slotframe deadlines
    on high-rate links.
    """
    total = sum(demands.values())
    assignment: Dict[int, List[Cell]] = {link.child: [] for link in links}
    assigned = {link.child: 0 for link in links}
    for index in range(total):
        # The link whose allocation lags its proportional share the most;
        # ties resolve in priority order (the `links` ordering).
        best = None
        best_deficit = None
        for link in links:
            child = link.child
            if assigned[child] >= demands[child]:
                continue
            deficit = demands[child] * (index + 1) / total - assigned[child]
            if best_deficit is None or deficit > best_deficit:
                best_deficit = deficit
                best = child
        assignment[best].append(cells[index])
        assigned[best] += 1
    return assignment


def build_schedule(
    topology: TreeTopology,
    partitions: PartitionTable,
    link_demands: Mapping[LinkRef, int],
    config: SlotframeConfig,
    priority: Optional[PriorityFn] = None,
    wrap_slots: Optional[int] = None,
    distribute_idle: bool = False,
    interleave: bool = False,
) -> Schedule:
    """Assemble the network-wide schedule from every node's local
    assignment (both directions)."""
    priority = priority or id_priority()
    schedule = Schedule(config)
    for direction in (Direction.UP, Direction.DOWN):
        per_parent = demands_by_parent(topology, link_demands, direction)
        for node, demands in sorted(per_parent.items()):
            partition = partitions.get(node, topology.node_layer(node), direction)
            if partition is None:
                raise ScheduleGenerationError(
                    f"node {node} has link demands but no partition at "
                    f"layer {topology.node_layer(node)} ({direction.value})"
                )
            assignment = schedule_node_links(
                topology,
                node,
                direction,
                partition,
                demands,
                config,
                priority,
                wrap_slots,
                distribute_idle,
                interleave,
            )
            for child, cells in assignment.items():
                schedule.assign_many(cells, LinkRef(child, direction))
    return schedule

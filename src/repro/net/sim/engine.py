"""Slot-accurate discrete-event simulator for multi-channel TSCH networks.

This substrate replaces the paper's 50-node CC2650 testbed.  It executes
a link schedule slot by slot over a tree topology:

* Tasks generate packets periodically (fractional packets/slotframe
  supported, as in Fig. 10's 1.5 pkt/slotframe step).
* Every occupied cell of the current slot triggers a transmission
  attempt when its link's sender has a matching head-of-queue packet.
* Conflicts fail transmissions exactly as on real hardware: two links in
  the same (slot, channel) cell jam each other, and a half-duplex node
  cannot take part in two transmissions in one slot.
* Surviving attempts pass a pluggable loss model (environmental
  interference); failures stay queued for the link's next cell.
* Uplink packets reaching the gateway are echoed downlink for e2e tasks,
  mirroring the testbed workload of Sec. VI-B.

The engine supports runtime mutation — task-rate changes and schedule
replacement — which the dynamic experiments (Fig. 10, Table II) use to
model traffic changes plus the adjustment delay reported by the
management plane.

Performance: the engine is *event-skipping*.  ``run_slots`` advances
slot by slot only through slots where something can happen — an
occupied cell with traffic queued, a task generation, a fault event, a
packet-lifetime expiry — and jumps over idle stretches in bulk while
keeping metrics and energy accounting slot-exact (skipped slots are
sleep slots by construction).  The slot-by-slot reference stepping
lives in :func:`repro.verify.reference.run_slots_stepped`; both produce
bit-identical results (see ``tests/net/test_engine_fastpath.py``).
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from ..radio import LossModel, PerfectRadio
from ..slotframe import Cell, Schedule, SlotframeConfig
from ..tasks import Task, TaskSet
from ..topology import Direction, LinkRef, TreeTopology
from .faults import FaultPlan
from .metrics import DeliveryRecord, MetricsCollector
from .trace import TraceRecorder, TxEvent, TxOutcome


@dataclass
class Packet:
    """A packet instance traversing the network."""

    task_id: int
    seq: int
    source: int
    destination: int
    direction: Direction
    created_slot: int
    echo: bool

    current_node: int = field(default=-1)
    #: Whether the packet currently sits in some node's queue (maintained
    #: by the engine; lets the TTL heap validate lazily-deleted entries).
    in_queue: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.current_node == -1:
            self.current_node = self.source


@dataclass
class _TaskState:
    """Per-task generation bookkeeping."""

    task: Task
    next_generation: float
    period_slots: float
    next_seq: int = 0


class TSCHSimulator:
    """Discrete-event execution of a schedule over a topology.

    Parameters
    ----------
    topology, schedule, task_set, config:
        The network under test.  The schedule may be replaced mid-run
        via :meth:`set_schedule`.
    loss_model:
        Environmental loss; default :class:`PerfectRadio`.
    rng:
        Seeded RNG for loss sampling (and nothing else — the engine is
        otherwise deterministic).
    queue_capacity:
        Per-node, per-direction queue bound; overflowing packets are
        dropped and counted.  ``None`` = unbounded.
    max_packet_age_slots:
        Packet lifetime, as in real TSCH stacks: a queued packet older
        than this many slots is expired and dropped (counted in
        ``metrics.expired_drops``).  ``None`` = packets never expire.
        Fault studies set this so the backlog accumulated during an
        outage drains instead of delaying fresh traffic forever.
    fault_plan:
        Optional :class:`~repro.net.sim.faults.FaultPlan`.  Crash and
        link-collapse events fire slot-accurately: a crashed node
        neither generates nor transmits nor receives (its queues are
        flushed at crash time and counted as ``fault_drops``), and a
        collapsed link's PDR is capped for the window.  Management-loss
        bursts are consumed by the live co-simulation layer, not here.
    """

    def __init__(
        self,
        topology: TreeTopology,
        schedule: Schedule,
        task_set: TaskSet,
        config: SlotframeConfig,
        loss_model: Optional[LossModel] = None,
        rng: Optional[random.Random] = None,
        queue_capacity: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        max_packet_age_slots: Optional[int] = None,
    ) -> None:
        if max_packet_age_slots is not None and max_packet_age_slots < 1:
            raise ValueError(
                f"max_packet_age_slots must be >= 1, got {max_packet_age_slots}"
            )
        self.topology = topology
        self.schedule = schedule
        self.config = config
        self.loss_model = loss_model or PerfectRadio()
        self.rng = rng or random.Random(0)
        self.queue_capacity = queue_capacity
        self.max_packet_age_slots = max_packet_age_slots
        self.metrics = MetricsCollector(config)
        self.current_slot = 0
        self.traffic_enabled = True
        #: Nodes currently crashed by the fault plan.
        self.down_nodes: set = set()
        #: Optional transmission trace (attach a TraceRecorder to record
        #: every attempt with its outcome).
        self.trace = None
        #: Optional per-node energy accounting (attach an EnergyTracker).
        self.energy = None

        self._uplink_q: Dict[int, Deque[Packet]] = {
            n: deque() for n in topology.nodes
        }
        self._downlink_q: Dict[int, Deque[Packet]] = {
            n: deque() for n in topology.nodes
        }
        #: Packets currently queued anywhere (kept exact so the fast
        #: path can prove occupied slots idle when the network is empty).
        self._queued_total = 0
        self._tasks: Dict[int, _TaskState] = {}
        #: node -> number of registered tasks sourced there (the fast
        #: path steps slot-by-slot while a task source is crashed, to
        #: reproduce the per-slot generation-phase bump exactly).
        self._task_sources: Dict[int, int] = {}
        #: Min-heap of (wake_slot, task_id): the next integer slot at
        #: which each task may generate.  Entries are lazily validated
        #: (stale ones re-arm from the task's authoritative state).
        self._gen_heap: List[Tuple[int, int]] = []
        for task in task_set:
            self._register_task(task, next_generation=0.0)
        #: Min-heap of (expiry_slot, serial, packet) for packet-lifetime
        #: enforcement; entries for already-delivered/dropped packets are
        #: skipped via ``Packet.in_queue`` (lazy deletion).
        self._ttl_heap: List[Tuple[int, int, Packet]] = []
        self._ttl_serial = 0
        # Cache: slot-in-frame -> [(cell, link), ...], pre-sorted in
        # deterministic (cell, child) dispatch order.
        self._slot_index: Dict[int, List[Tuple[Cell, LinkRef]]] = {}
        self._occupied_frame_slots: List[int] = []
        self._rebuild_slot_index()
        # Downlink routing: (current, destination) -> child next hop.
        self._next_hop_cache: Dict[Tuple[int, int], int] = {}
        # Sorted slots at which the fault plan changes engine state.
        self.fault_plan = fault_plan or FaultPlan()

    # ------------------------------------------------------------------
    # runtime mutation
    # ------------------------------------------------------------------

    @property
    def fault_plan(self) -> FaultPlan:
        return self._fault_plan

    @fault_plan.setter
    def fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Install a fault plan (the live layer swaps plans mid-run);
        re-derives the sorted crash/recovery event slots the fast path
        must not skip over."""
        self._fault_plan = plan or FaultPlan()
        self._fault_event_slots = self._fault_plan.engine_event_slots()

    def set_schedule(self, schedule: Schedule) -> None:
        """Replace the active schedule (takes effect next slot)."""
        self.schedule = schedule
        self._rebuild_slot_index()

    def set_topology(self, topology: TreeTopology) -> None:
        """Replace the routing topology (self-healing re-parenting).

        Downlink next hops are derived from the topology, so the route
        cache is invalidated; queues for new nodes are created lazily
        and queues of removed nodes simply go unreferenced.
        """
        self.topology = topology
        self._next_hop_cache = {}
        for node in topology.nodes:
            self._uplink_q.setdefault(node, deque())
            self._downlink_q.setdefault(node, deque())

    def _register_task(self, task: Task, next_generation: float) -> None:
        self._tasks[task.task_id] = _TaskState(
            task=task,
            next_generation=next_generation,
            period_slots=self.config.num_slots / task.rate,
        )
        self._task_sources[task.source] = (
            self._task_sources.get(task.source, 0) + 1
        )
        heapq.heappush(
            self._gen_heap,
            (max(0, math.ceil(next_generation)), task.task_id),
        )

    def add_task(self, task: Task) -> None:
        """Register a task at runtime (a membership join or a recovered
        node rejoining); generation starts from the current slot."""
        if task.task_id in self._tasks:
            raise ValueError(f"task {task.task_id} already registered")
        self._register_task(task, next_generation=float(self.current_slot))

    def remove_task(self, task_id: int) -> int:
        """Stop a task and purge its in-flight packets (a crashed
        source); returns the number of packets destroyed."""
        state = self._tasks.pop(task_id, None)
        if state is not None:
            count = self._task_sources.get(state.task.source, 0) - 1
            if count <= 0:
                self._task_sources.pop(state.task.source, None)
            else:
                self._task_sources[state.task.source] = count
        purged = 0
        for queues in (self._uplink_q, self._downlink_q):
            for node, queue in queues.items():
                keep = [p for p in queue if p.task_id != task_id]
                purged += len(queue) - len(keep)
                if len(keep) != len(queue):
                    for packet in queue:
                        if packet.task_id == task_id:
                            packet.in_queue = False
                    queue.clear()
                    queue.extend(keep)
        self._queued_total -= purged
        self.metrics.fault_drops += purged
        self.metrics.dropped += purged
        return purged

    def set_task_rate(self, task_id: int, rate: float) -> None:
        """Change a task's generation rate from now on (Fig. 10)."""
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        state = self._tasks[task_id]
        from dataclasses import replace as dc_replace

        state.task = dc_replace(state.task, rate=rate)
        state.period_slots = self.config.num_slots / rate
        # Next generation keeps its phase; subsequent gaps use the new
        # period.
        state.next_generation = max(state.next_generation, float(self.current_slot))
        heapq.heappush(
            self._gen_heap,
            (math.ceil(state.next_generation), task_id),
        )

    def _rebuild_slot_index(self) -> None:
        self._slot_index = {}
        for link in self.schedule.links:
            for cell in self.schedule.cells_of(link):
                self._slot_index.setdefault(cell.slot, []).append((cell, link))
        # Pre-sort each slot's dispatch list once instead of on every
        # transmission step, and keep the occupied slots sorted for the
        # fast path's next-event search.
        for entries in self._slot_index.values():
            entries.sort(key=lambda e: (e[0], e[1].child))
        self._occupied_frame_slots = sorted(self._slot_index)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run_slots(self, num_slots: int) -> MetricsCollector:
        """Advance the simulation by ``num_slots`` slots.

        Idle stretches are jumped in bulk; the observable outcome is
        identical to stepping every slot, including per-slot energy
        accounting.
        """
        end = self.current_slot + num_slots
        while self.current_slot < end:
            nxt = self._next_event_slot(end)
            if nxt > self.current_slot:
                self._skip_slots(nxt - self.current_slot)
            else:
                self._step()
        return self.metrics

    def run_slotframes(self, num_slotframes: int) -> MetricsCollector:
        """Advance by whole slotframes."""
        return self.run_slots(num_slotframes * self.config.num_slots)

    def _next_event_slot(self, end: int) -> int:
        """Earliest slot in ``[current_slot, end)`` that needs full
        processing (``end`` when the rest of the window is idle).

        A slot must be processed when any of these may fire:

        * a crash/recovery event of the fault plan,
        * a task generation (integer ceiling of the earliest due time),
        * a packet-lifetime expiry,
        * an occupied cell *while traffic is queued* — or, when an
          energy tracker is attached, any occupied cell at all, since a
          scheduled-but-silent cell still charges its receiver for idle
          listening.

        While a registered task's source is crashed the engine refuses
        to skip: the reference path re-phases such tasks every slot and
        the fast path must reproduce that bookkeeping exactly.
        """
        cur = self.current_slot
        if self.down_nodes and not self.down_nodes.isdisjoint(
            self._task_sources
        ):
            return cur
        nxt = end
        if self._fault_event_slots:
            i = bisect_left(self._fault_event_slots, cur)
            if i < len(self._fault_event_slots):
                nxt = min(nxt, self._fault_event_slots[i])
        if self.traffic_enabled and self._gen_heap:
            nxt = min(nxt, self._gen_heap[0][0])
        if self._ttl_heap:
            nxt = min(nxt, self._ttl_heap[0][0])
        if self._queued_total > 0 or self.energy is not None:
            occ = self._next_occupied_slot(cur)
            if occ is not None:
                nxt = min(nxt, occ)
        return max(cur, min(nxt, end))

    def _next_occupied_slot(self, slot: int) -> Optional[int]:
        """Absolute slot >= ``slot`` whose frame slot has scheduled
        cells (``None`` for an empty schedule)."""
        occupied = self._occupied_frame_slots
        if not occupied:
            return None
        num_slots = self.config.num_slots
        frame_slot = slot % num_slots
        i = bisect_left(occupied, frame_slot)
        if i < len(occupied):
            return slot - frame_slot + occupied[i]
        return slot - frame_slot + num_slots + occupied[0]

    def _skip_slots(self, count: int) -> None:
        """Advance ``count`` provably idle slots at once.

        Nothing observable happens in a skipped slot except that every
        node sleeps, so the only accounting is the bulk sleep charge.
        """
        if self.energy is not None:
            self.energy.account_sleep_slots(self.topology.nodes, count)
        self.current_slot += count

    def _step(self) -> None:
        self._apply_fault_events()
        self._expire_stale_packets()
        self._generate_packets()
        self._transmit()
        self.current_slot += 1

    def _expire_stale_packets(self) -> None:
        """Enforce the packet lifetime: queued packets whose age reached
        ``max_packet_age_slots`` are dropped, as a real stack's
        time-to-live would.  The bound is inclusive — a packet at the
        lifetime edge still needs at least one slot per remaining hop,
        so transmitting it would only waste cells downstream.

        The expiry slot of a packet is fixed at creation (hops and the
        gateway echo preserve ``created_slot``), so a min-heap ordered
        by expiry replaces the full queue scan; entries whose packet
        already left the network are dropped lazily.
        """
        heap = self._ttl_heap
        if not heap or heap[0][0] > self.current_slot:
            return
        expired = 0
        while heap and heap[0][0] <= self.current_slot:
            _, _, packet = heapq.heappop(heap)
            if not packet.in_queue:
                continue
            queue = (
                self._uplink_q[packet.current_node]
                if packet.direction is Direction.UP
                else self._downlink_q[packet.current_node]
            )
            queue.remove(packet)
            packet.in_queue = False
            self._queued_total -= 1
            expired += 1
        self.metrics.expired_drops += expired
        self.metrics.dropped += expired

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def _apply_fault_events(self) -> None:
        if self.fault_plan.is_empty:
            return
        for crash in self.fault_plan.crashes_at(self.current_slot):
            self.down_nodes.add(crash.node)
            self._flush_node_queues(crash.node)
        for crash in self.fault_plan.recoveries_at(self.current_slot):
            self.down_nodes.discard(crash.node)

    def _flush_node_queues(self, node: int) -> None:
        """A crash destroys the node's RAM: every queued packet is lost."""
        lost = 0
        for queues in (self._uplink_q, self._downlink_q):
            queue = queues.get(node)
            if queue:
                for packet in queue:
                    packet.in_queue = False
                lost += len(queue)
                queue.clear()
        self._queued_total -= lost
        self.metrics.fault_drops += lost
        self.metrics.dropped += lost

    # ------------------------------------------------------------------
    # packet generation
    # ------------------------------------------------------------------

    def disable_traffic(self) -> None:
        """Stop packet generation (e.g. while the network bootstraps;
        real deployments start applications after formation)."""
        self.traffic_enabled = False

    def enable_traffic(self) -> None:
        """Resume packet generation from the current slot."""
        self.traffic_enabled = True
        for task_id, state in self._tasks.items():
            state.next_generation = max(
                state.next_generation, float(self.current_slot)
            )
            heapq.heappush(
                self._gen_heap,
                (math.ceil(state.next_generation), task_id),
            )

    def _generate_packets(self) -> None:
        if not self.traffic_enabled:
            return
        heap = self._gen_heap
        cur = self.current_slot
        while heap and heap[0][0] <= cur:
            _, task_id = heapq.heappop(heap)
            state = self._tasks.get(task_id)
            if state is None:
                continue  # task removed; stale heap entry
            if state.task.source in self.down_nodes:
                # A crashed source generates nothing; its phase resumes
                # from the recovery slot if it ever comes back.
                state.next_generation = max(
                    state.next_generation, float(cur + 1)
                )
                heapq.heappush(heap, (cur + 1, task_id))
                continue
            if state.next_generation > cur:
                # Stale entry (e.g. a rate change re-armed the task):
                # re-file at the authoritative wake slot.
                heapq.heappush(
                    heap, (math.ceil(state.next_generation), task_id)
                )
                continue
            while state.next_generation <= cur:
                packet = Packet(
                    task_id=state.task.task_id,
                    seq=state.next_seq,
                    source=state.task.source,
                    destination=state.task.downlink_target,
                    direction=Direction.UP,
                    created_slot=cur,
                    echo=state.task.echo,
                )
                state.next_seq += 1
                state.next_generation += state.period_slots
                self.metrics.record_generation(cur)
                if self.max_packet_age_slots is not None:
                    self._ttl_serial += 1
                    heapq.heappush(
                        self._ttl_heap,
                        (
                            cur + self.max_packet_age_slots,
                            self._ttl_serial,
                            packet,
                        ),
                    )
                self._enqueue(packet, state.task.source, Direction.UP)
            heapq.heappush(
                heap, (math.ceil(state.next_generation), task_id)
            )

    def _enqueue(self, packet: Packet, node: int, direction: Direction) -> None:
        queue = (
            self._uplink_q[node]
            if direction is Direction.UP
            else self._downlink_q[node]
        )
        if (
            self.queue_capacity is not None
            and len(queue) >= self.queue_capacity
        ):
            packet.in_queue = False
            self.metrics.queue_overflow_drops += 1
            self.metrics.dropped += 1
            return
        packet.current_node = node
        packet.direction = direction
        packet.in_queue = True
        queue.append(packet)
        self._queued_total += 1
        depth = len(queue)
        if depth > self.metrics.max_queue_depth.get(node, 0):
            self.metrics.max_queue_depth[node] = depth

    # ------------------------------------------------------------------
    # per-slot transmissions
    # ------------------------------------------------------------------

    def _transmit(self) -> None:
        frame_slot = self.current_slot % self.config.num_slots
        entries = self._slot_index.get(frame_slot, [])
        if not entries:
            if self.energy is not None:
                self.energy.account_slot(
                    self.topology.nodes, set(), set(), set()
                )
            return

        # Gather attempts: (cell, link, packet) for links whose sender
        # has an eligible packet.  Entries are pre-sorted in dispatch
        # order by _rebuild_slot_index.
        attempts: List[Tuple[Cell, LinkRef, Packet]] = []
        claimed: Set[int] = set()  # packet ids, guard vs double-claim
        for cell, link in entries:
            if (
                self.down_nodes
                and link.sender(self.topology) in self.down_nodes
            ):
                continue  # a crashed sender is silent: no attempt at all
            packet = self._eligible_packet(link, claimed)
            if packet is not None:
                attempts.append((cell, link, packet))
                claimed.add(id(packet))

        if self.energy is not None:
            transmitters = {
                link.sender(self.topology) for _, link, _ in attempts
            }
            receivers = {
                link.receiver(self.topology) for _, link, _ in attempts
            }
            attempted_cells = {cell for cell, _, _ in attempts}
            # A scheduled RX cell whose sender had nothing still wakes
            # the receiver: the idle-listening cost of over-provisioning.
            idle_listeners = {
                link.receiver(self.topology)
                for cell, link in entries
                if cell not in attempted_cells
            }
            self.energy.account_slot(
                self.topology.nodes, transmitters, receivers, idle_listeners
            )
        if not attempts:
            return
        self.metrics.transmissions_attempted += len(attempts)

        # Cell conflicts: >= 2 attempts in one (slot, channel).
        by_cell: Dict[Cell, List[int]] = {}
        for idx, (cell, _, _) in enumerate(attempts):
            by_cell.setdefault(cell, []).append(idx)
        failed: Dict[int, TxOutcome] = {}
        for cell, idxs in by_cell.items():
            if len(idxs) > 1:
                for idx in idxs:
                    failed[idx] = TxOutcome.COLLISION
                self.metrics.collision_failures += len(idxs)

        # Half-duplex conflicts: a node involved in >= 2 surviving attempts.
        by_node: Dict[int, List[int]] = {}
        for idx, (_, link, _) in enumerate(attempts):
            if idx in failed:
                continue
            for node in link.endpoints(self.topology):
                by_node.setdefault(node, []).append(idx)
        for node, idxs in by_node.items():
            if len(idxs) > 1:
                for idx in idxs:
                    if idx not in failed:
                        failed[idx] = TxOutcome.HALF_DUPLEX
                        self.metrics.half_duplex_failures += 1

        observe = getattr(self.loss_model, "observe_cell", None)
        for idx, (cell, link, packet) in enumerate(attempts):
            if idx in failed:
                self._record_trace(cell, link, packet, failed[idx])
                continue
            if (
                self.down_nodes
                and link.receiver(self.topology) in self.down_nodes
            ):
                self.metrics.fault_failures += 1
                self._record_trace(cell, link, packet, TxOutcome.NODE_DOWN)
                continue
            fault_cap = self.fault_plan.link_pdr_cap(
                link.child, self.current_slot
            )
            if fault_cap < 1.0 and not (
                fault_cap > 0.0 and self.rng.random() < fault_cap
            ):
                self.metrics.fault_failures += 1
                self._record_trace(cell, link, packet, TxOutcome.FAULT_LOSS)
                continue
            if observe is not None:
                # Frequency-selective models (channel hopping + external
                # interference) need the slot/channel context.
                observe(self.current_slot, cell)
            if not self.loss_model.transmission_succeeds(
                self.topology, link, self.rng
            ):
                self.metrics.loss_failures += 1
                self._record_trace(cell, link, packet, TxOutcome.CHANNEL_LOSS)
                continue
            self.metrics.transmissions_succeeded += 1
            self._record_trace(cell, link, packet, TxOutcome.DELIVERED)
            self._complete_hop(link, packet)

    def _record_trace(self, cell, link, packet, outcome) -> None:
        if self.trace is not None:
            self.trace.record(
                TxEvent(
                    slot=self.current_slot,
                    cell=cell,
                    link=link,
                    task_id=packet.task_id,
                    seq=packet.seq,
                    outcome=outcome,
                )
            )

    def _eligible_packet(
        self, link: LinkRef, claimed: Set[int]
    ) -> Optional[Packet]:
        """Head-of-line packet the sender would transmit on ``link``."""
        sender = link.sender(self.topology)
        if link.direction is Direction.UP:
            queue = self._uplink_q[sender]
            for packet in queue:
                if id(packet) not in claimed:
                    return packet
            return None
        # Downlink: the sender relays the first queued packet whose next
        # hop toward its destination is this link's child.
        queue = self._downlink_q[sender]
        for packet in queue:
            if id(packet) in claimed:
                continue
            if self._downlink_next_hop(sender, packet.destination) == link.child:
                return packet
        return None

    def _downlink_next_hop(self, node: int, destination: int) -> Optional[int]:
        key = (node, destination)
        if key not in self._next_hop_cache:
            path = self.topology.path_to_gateway(destination)
            # path: destination .. node .. gateway; next hop below `node`
            # is the element right before `node` in that list.
            if node not in path or path[0] == node:
                self._next_hop_cache[key] = None  # type: ignore[assignment]
            else:
                self._next_hop_cache[key] = path[path.index(node) - 1]
        return self._next_hop_cache[key]

    def _complete_hop(self, link: LinkRef, packet: Packet) -> None:
        sender = link.sender(self.topology)
        receiver = link.receiver(self.topology)
        queue = (
            self._uplink_q[sender]
            if link.direction is Direction.UP
            else self._downlink_q[sender]
        )
        queue.remove(packet)
        packet.in_queue = False
        self._queued_total -= 1

        if link.direction is Direction.UP:
            if receiver == self.topology.gateway_id:
                if packet.echo:
                    # Gateway echoes the packet downlink (same identity
                    # and creation time, per the testbed e2e tasks).
                    self._enqueue(packet, receiver, Direction.DOWN)
                else:
                    self._deliver(packet)
            else:
                self._enqueue(packet, receiver, Direction.UP)
        else:
            if receiver == packet.destination:
                self._deliver(packet)
            else:
                self._enqueue(packet, receiver, Direction.DOWN)

    def _deliver(self, packet: Packet) -> None:
        task = self._tasks[packet.task_id].task
        deadline_slots = int(
            task.effective_deadline_slotframes * self.config.num_slots
        )
        self.metrics.record_delivery(
            DeliveryRecord(
                task_id=packet.task_id,
                seq=packet.seq,
                source=packet.source,
                created_slot=packet.created_slot,
                delivered_slot=self.current_slot + 1,
            ),
            deadline_slots=deadline_slots,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def queued_packets(self) -> int:
        """Packets currently waiting in any queue."""
        return sum(len(q) for q in self._uplink_q.values()) + sum(
            len(q) for q in self._downlink_q.values()
        )

    def queued_at(
        self, nodes: Iterable[int], direction: Direction,
        echo_only: bool = False,
    ) -> int:
        """Packets currently queued at any of ``nodes`` in one
        direction — the measured backlog behind a set of links (the
        live layer sizes its elastic post-heal boosts from this).

        With ``echo_only`` only packets of echo tasks are counted: the
        fraction of an uplink backlog that will return downlink after
        the gateway turns it around (non-echo packets terminate at the
        gateway and never load the reverse path)."""
        queues = (
            self._uplink_q if direction is Direction.UP else self._downlink_q
        )
        total = 0
        for node in nodes:
            queue = queues.get(node)
            if queue:
                if echo_only:
                    total += sum(1 for packet in queue if packet.echo)
                else:
                    total += len(queue)
        return total

    def queued_into(self, nodes: Iterable[int]) -> int:
        """Downlink packets *destined* into any of ``nodes``, wherever
        they currently sit.  Downlink backlog queues at ancestors on
        the way down, so measuring by holder (``queued_at``) misses it
        entirely for a subtree — this is the per-destination view the
        live layer sizes its downlink elastic boosts from."""
        wanted = set(nodes)
        return sum(
            1
            for queue in self._downlink_q.values()
            for packet in queue
            if packet.destination in wanted
        )

    def conservation_findings(self) -> List[str]:
        """The engine's conservation laws as audit findings (empty =
        clean): every generated packet is delivered, dropped, or queued
        exactly once; every drop is attributed to a cause; and the fast
        path's ``_queued_total`` bookkeeping matches the real queues.
        """
        queued = self.queued_packets()
        findings = self.metrics.conservation_findings(queued=queued)
        if queued != self._queued_total:
            findings.append(
                f"queued-total cache open: counter says "
                f"{self._queued_total} but queues hold {queued}"
            )
        return findings

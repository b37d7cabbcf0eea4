"""The benchmark's four workloads.

Each workload turns a seed into inputs, builds them (the set-up, timed
separately), then runs a *fixed* amount of work whose size depends only
on the requested run length (:meth:`Workload.units`).  Everything
simulated — digests, message counts, delivery and latency in slots — is
taken from that fixed work, so it repeats exactly for a given
``(seed, seconds)``.  If the fixed work ends before the requested run
length, the run keeps going with more of the same work ("fill") that
adds host-time samples only.

Host time is measured per operation:

* ``bootstrap`` — one allocate+validate of the static phase;
* ``churn`` — one dynamics op through :meth:`TopologyManager.apply_event`;
* ``floor`` and ``telemetry`` — one simulated slot, measured per chunk
  (one ``run_slotframes(1)`` of the live network; one ``run_slots``
  call of the engine) and divided by the slots the chunk advanced, read
  from ``sim.current_slot`` because heals step nested slotframes.

The data-plane figures (``delivery_ratio``, ``latency_*_slots``) of
``bootstrap`` and ``churn`` come from a probe: a fresh
:class:`TSCHSimulator` with a perfect radio over the schedule the
workload left behind, so they give the delay along the path to the root
and back that the allocation provides.  ``floor`` takes its delivery
ratio from the completed episodes (crashes included) and its latency
from the live traffic delivered before the first crash; ``telemetry``
takes all three from its own engine run.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
import traceback
from bisect import bisect_left
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.agents.live import LiveHarpNetwork
from repro.core.allocation import InsufficientResourcesError
from repro.core.dynamics import TopologyManager
from repro.core.manager import HarpNetwork
from repro.net.sim.engine import TSCHSimulator
from repro.net.sim.faults import FaultPlan
from repro.net.slotframe import SlotframeConfig
from repro.net.tasks import e2e_task_per_node
from repro.net.topology import layered_random_tree

from gate import (
    check_engine,
    check_network,
    check_same,
    check_schedule,
    combine,
)
from tracing import Tracer, instrument


def percentile(
    values: List[float], q: float, weights: Optional[List[float]] = None
) -> float:
    """``q``-th percentile (0-100) of ``values``: linear interpolation,
    or with ``weights`` the smallest value whose cumulative weight
    reaches ``q`` percent of the total (each chunk of slots counts once
    per slot)."""
    if not values:
        return 0.0
    if weights is not None:
        pairs = sorted(zip(values, weights))
        target = sum(weights) * q / 100.0
        seen = 0.0
        for value, weight in pairs:
            seen += weight
            if seen >= target:
                return value
        return pairs[-1][0]
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _reference_loop(table: List[int], cycle: List[int]) -> int:
    """Fixed pure-Python work that allocates nothing: every value is a
    small int below 256, which CPython never allocates, so neither the
    allocator state nor a garbage collection the program left owing can
    slow it down — only the speed of the host can."""
    x = 0
    for v in cycle:
        x = table[x ^ v]
        table[v] = x ^ 0x55
    return x


class Pace:
    """How fast the host runs Python right now, relative to the
    calibration box.

    A shared machine speeds up and slows down by a quarter or more over
    seconds, as its neighbours come and go, and that moves every host
    time alike.  Before and after operations the benchmark times a fixed
    pure-Python loop (at most once per :attr:`every_s`) and scales each
    operation's host time by ``NOMINAL_S / loop time`` (median of the
    last few samples), so a timing reads what it would on the
    calibration box at its usual speed.  Code under test never runs
    inside the loop, so a slower program still reads slower; raw host
    times are reported beside the scaled ones."""

    #: Seconds :func:`_reference_loop` takes on the calibration box.
    NOMINAL_S = 0.00114
    every_s = 0.1

    def __init__(self) -> None:
        #: The last few loop times; their median sets the scale.
        self._recent: deque = deque(maxlen=5)
        self._table = list(range(256))
        self._cycle = [(i * 37) & 255 for i in range(20_000)]
        self._due = 0.0
        self.scales: List[float] = []

    def sample(self) -> None:
        """Time the reference loop unless a recent sample exists."""
        if self._recent and time.perf_counter() < self._due:
            return
        start = time.perf_counter()
        _reference_loop(self._table, self._cycle)
        end = time.perf_counter()
        self._recent.append(end - start)
        self._due = end + self.every_s

    def scale(self) -> float:
        value = self.NOMINAL_S / statistics.median(self._recent)
        self.scales.append(value)
        return value


@dataclass
class Pass:
    """What one pass over a workload measured."""

    #: Host milliseconds per operation (per simulated slot for the
    #: data-plane workloads) scaled by :class:`Pace`, and the weight
    #: (simulated slots) of each sample.
    samples_ms: List[float] = field(default_factory=list)
    weights: List[float] = field(default_factory=list)
    #: Operations applied or slots simulated inside the timed regions.
    work: float = 0.0
    #: Scaled and raw host seconds inside the timed regions.
    busy_s: float = 0.0
    raw_busy_s: float = 0.0
    raw_ms: List[float] = field(default_factory=list)
    pace: Pace = field(default_factory=Pace)
    attempted: int = 0
    failed: int = 0
    #: Of the fixed work only (these repeat exactly for one seed).
    fixed_attempted: int = 0
    fixed_failed: int = 0
    #: Simulated outputs of the fixed work.
    sim: Dict[str, float] = field(default_factory=dict)
    digest: str = ""
    #: Host ms per op kind (churn), for the traced breakdown.
    by_kind_ms: Dict[str, List[float]] = field(default_factory=dict)
    #: Layer counters read from the program's own stats objects.
    counters: Dict[str, float] = field(default_factory=dict)

    def record(self, ms: float, work: float = 1.0) -> None:
        """One timed op (or chunk of ``work`` slots) took ``ms``."""
        self.pace.sample()
        scaled = ms * self.pace.scale()
        self.samples_ms.append(scaled / work)
        self.weights.append(work)
        self.raw_ms.append(ms / work)
        self.work += work
        self.busy_s += scaled / 1000.0
        self.raw_busy_s += ms / 1000.0


def _fail(result: Pass, fixed: bool, what: str) -> None:
    """Count a failed operation and keep its traceback for the report."""
    result.failed += 1
    if fixed:
        result.fixed_failed += 1
    print(f"{what}: {traceback.format_exc(limit=2).strip()}", file=sys.stderr)


def _scale_inputs(devices: int, depth: int, seed: int, rate: float):
    """A depth-``depth`` layered random tree, one e2e task per device and
    a slotframe eight slots wide per device (the scale-suite shape)."""
    topology = layered_random_tree(devices, depth, random.Random(seed))
    tasks = e2e_task_per_node(topology, rate=rate)
    config = SlotframeConfig(num_slots=max(199, 8 * devices), num_channels=16)
    return topology, tasks, config


def _latency_figures(latencies: List[int]) -> Dict[str, float]:
    return {
        "latency_p50_slots": percentile(latencies, 50),
        "latency_p95_slots": percentile(latencies, 95),
        "latency_p99_slots": percentile(latencies, 99),
        "latency_samples": float(len(latencies)),
    }


def probe(
    topology, schedule, task_set, config, seed: int, label: str,
    slotframes: int = 2,
):
    """Run the data plane over a finished schedule for ``slotframes``
    slotframes with a perfect radio; returns ``(delivered, created,
    latencies, digest)`` for the packets created in all but the last."""
    sim = TSCHSimulator(
        topology, schedule, task_set, config, rng=random.Random(seed),
        max_packet_age_slots=10 * config.num_slots,
    )
    sim.run_slots(slotframes * config.num_slots)
    digest = check_engine(sim, label)
    window = (slotframes - 1) * config.num_slots
    created = sum(1 for s in sim.metrics.generation_slots if s < window)
    latencies = [
        r.latency_slots for r in sim.metrics.deliveries
        if r.created_slot < window
    ]
    return len(latencies), created, latencies, digest


def recovery_slots(
    metrics, fault_slot: int, baseline: float, end_slot: int
) -> Optional[int]:
    """:meth:`MetricsCollector.time_to_recover` with its defaults (one
    slotframe windows, 95% of ``baseline``), counted with binary search
    instead of a scan of every packet per window; the benchmark's tests
    check that both agree."""
    window = metrics.config.num_slots
    created = sorted(metrics.generation_slots)
    delivered = sorted(r.created_slot for r in metrics.deliveries)
    target = 0.95 * baseline
    start = fault_slot
    while start < end_slot:
        stop = start + window
        made = bisect_left(created, stop) - bisect_left(created, start)
        if made > 0:
            got = bisect_left(delivered, stop) - bisect_left(delivered, start)
            if got / made >= target:
                return stop - fault_slot
        start = stop
    return None


def _traced(tracer: Optional[Tracer]):
    return instrument(tracer) if tracer is not None else nullcontext()


class Workload:
    """One benchmark workload (see the module docstring)."""

    name = ""
    #: Host seconds one unit of fixed work takes on the reference box;
    #: sizes the fixed work to the requested run length.
    unit_seconds = 1.0
    #: Set-ups per run whose median is ``setup_s``.
    setups = 3
    min_units = 2

    def units(self, seconds: float) -> int:
        return max(self.min_units, round(seconds / self.unit_seconds))

    def prepare(
        self, seed: int, units: int, repeats: Optional[int] = None
    ) -> Tuple[object, List[float]]:
        """Build the inputs ``repeats`` times (default :attr:`setups`);
        returns the last state and the host time of each build."""
        times = []
        state = None
        pace = Pace()
        for _ in range(repeats or self.setups):
            pace.sample()
            start = time.perf_counter()
            state = self.setup(seed)
            elapsed = time.perf_counter() - start
            pace.sample()
            times.append(elapsed * pace.scale())
        return state, times

    def setup(self, seed: int):
        raise NotImplementedError

    def run(
        self, state, seed: int, units: int, fill_s: float,
        tracer: Optional[Tracer] = None,
    ) -> Pass:
        raise NotImplementedError


# ----------------------------------------------------------------------
# bootstrap: the static phase, repeatedly, on one large network
# ----------------------------------------------------------------------


class Bootstrap(Workload):
    """The static phase (ledger, Alg. 1, placement, link scheduling and
    the certificate) on one large network, repeated."""

    name = "bootstrap"
    unit_seconds = 1.1
    setups = 5

    def __init__(self, devices: int = 5000, depth: int = 8) -> None:
        self.devices = devices
        self.depth = depth

    def setup(self, seed: int):
        return _scale_inputs(self.devices, self.depth, seed, rate=1.0)

    @staticmethod
    def _allocate(topology, tasks, config) -> HarpNetwork:
        harp = HarpNetwork(
            topology, tasks, config, case1_slack=1, distribute_slack=True
        )
        harp.allocate()
        harp.validate()
        return harp

    def run(self, state, seed, units, fill_s, tracer=None) -> Pass:
        topology, tasks, config = state
        result = Pass()
        # Reference allocation, untimed: warms the interpreter and gives
        # the state every timed allocation must reproduce.
        reference = self._allocate(topology, tasks, config)
        ref_digest = check_network(reference, "bootstrap reference")
        messages = reference.static_report.total_messages
        hits = misses = 0
        last = reference
        started = time.perf_counter()
        with _traced(tracer):
            for _ in range(units):
                harp = self._timed(state, result, tracer, fixed=True)
                if harp is not None:
                    cache = harp.composition_cache.stats()
                    hits += cache["hits"]
                    misses += cache["misses"]
                    last = harp
        while time.perf_counter() - started < fill_s:
            last = self._timed(state, result, None, fixed=False) or last
        check_same(
            "bootstrap: repeated allocation",
            [ref_digest, check_network(last, "bootstrap last")],
        )
        delivered, created, latencies, probe_digest = probe(
            topology, reference.schedule, tasks, config, seed,
            "bootstrap probe",
        )
        result.digest = combine([ref_digest, probe_digest])
        result.sim = {
            "delivery_ratio": delivered / created,
            "messages_per_op": float(messages),
            **_latency_figures(latencies),
        }
        result.counters = {"cache_hits": hits, "cache_misses": misses}
        return result

    def _timed(self, state, result: Pass, tracer, fixed: bool):
        result.attempted += 1
        result.fixed_attempted += fixed
        result.pace.sample()
        start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("manager.static"):
                    harp = self._allocate(*state)
            else:
                harp = self._allocate(*state)
        except InsufficientResourcesError:
            _fail(result, fixed, "bootstrap allocation")
            return None
        result.record((time.perf_counter() - start) * 1000.0)
        return harp


# ----------------------------------------------------------------------
# churn: a seeded list of dynamics ops on an allocated network
# ----------------------------------------------------------------------


class _IndexedSet:
    """A set with O(1) add, remove and seeded uniform choice."""

    def __init__(self, items) -> None:
        self._items: List[int] = list(items)
        self._pos = {item: i for i, item in enumerate(self._items)}

    def __contains__(self, item) -> bool:
        return item in self._pos

    def __len__(self) -> int:
        return len(self._items)

    def add(self, item: int) -> None:
        if item not in self._pos:
            self._pos[item] = len(self._items)
            self._items.append(item)

    def discard(self, item: int) -> None:
        pos = self._pos.pop(item, None)
        if pos is None:
            return
        last = self._items.pop()
        if pos < len(self._items):
            self._items[pos] = last
            self._pos[last] = pos

    def choice(self, rng: random.Random) -> int:
        return self._items[rng.randrange(len(self._items))]


#: Rates a rate change picks from (cells per slotframe on each hop).
CHURN_RATES = (0.5, 1.0, 1.5, 2.0)

Op = Tuple[str, int, int, float]


def generate_ops(topology, rng: random.Random, count: int) -> List[Op]:
    """``count`` dynamics ops ``(kind, node, parent, rate)`` over a model
    of how the tree evolves, so every op is valid when applied in order.

    Kinds come in shuffled blocks of one each.  A rate change moves a
    task to another rate (up or down), an attach adds a leaf with a
    task, a detach removes a leaf, and a reparent moves a leaf under
    another router, growing the new path and shrinking the old one.
    Parents are devices above the tree's deepest layer."""
    gateway = topology.gateway_id
    max_depth = max(topology.depth_of(n) for n in topology.device_nodes)
    parent = {n: topology.parent_of(n) for n in topology.device_nodes}
    children = {n: set(topology.children_of(n)) for n in topology.nodes}
    depth = {n: topology.depth_of(n) for n in topology.nodes}
    rate = {n: 1.0 for n in topology.device_nodes}
    devices = _IndexedSet(topology.device_nodes)
    leaves = _IndexedSet(n for n in topology.device_nodes if not children[n])
    routers = _IndexedSet(
        n for n in topology.device_nodes if depth[n] < max_depth
    )
    next_id = max(topology.nodes) + 1
    kinds = ["rate_change", "attach", "detach", "reparent"]
    ops: List[Op] = []

    def unlink(node: int) -> None:
        old = parent.pop(node)
        children[old].discard(node)
        if old != gateway and not children[old]:
            leaves.add(old)

    def link(node: int, new_parent: int) -> None:
        parent[node] = new_parent
        children[new_parent].add(node)
        leaves.discard(new_parent)
        depth[node] = depth[new_parent] + 1
        if depth[node] < max_depth:
            routers.add(node)
        else:
            routers.discard(node)

    while len(ops) < count:
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "rate_change":
                node = devices.choice(rng)
                new_rate = rng.choice(
                    [r for r in CHURN_RATES if r != rate[node]]
                )
                rate[node] = new_rate
                ops.append((kind, node, 0, new_rate))
            elif kind == "attach":
                node, new_parent = next_id, routers.choice(rng)
                next_id += 1
                children[node] = set()
                devices.add(node)
                leaves.add(node)
                rate[node] = 1.0
                link(node, new_parent)
                ops.append((kind, node, new_parent, 1.0))
            elif kind == "detach":
                if len(leaves) <= 1:
                    continue
                node = leaves.choice(rng)
                unlink(node)
                for members in (devices, leaves, routers):
                    members.discard(node)
                del rate[node]
                ops.append((kind, node, 0, 0.0))
            else:
                node = leaves.choice(rng)
                new_parent = routers.choice(rng)
                if new_parent in (node, parent[node]):
                    continue
                unlink(node)
                leaves.add(node)
                link(node, new_parent)
                ops.append((kind, node, new_parent, 0.0))
    return ops[:count]


class Churn(Workload):
    """Dynamics ops (rate changes, attaches, detaches, reparents) on an
    allocated network, generated before timing starts."""

    name = "churn"
    unit_seconds = 0.13

    #: The plant is fixed; the seed picks the ops.
    layout_seed = 7

    def __init__(self, devices: int = 2000, depth: int = 8) -> None:
        self.devices = devices
        self.depth = depth
        #: Ops generated per set-up (fixed work plus room to fill).
        self.op_budget = 0

    def prepare(self, seed, units, repeats=None):
        self.op_budget = max(4 * units, units + 400)
        return super().prepare(seed, units, repeats)

    def setup(self, seed: int):
        topology, tasks, config = _scale_inputs(
            self.devices, self.depth, self.layout_seed, rate=1.0
        )
        harp = HarpNetwork(
            topology, tasks, config, case1_slack=1, distribute_slack=True
        )
        harp.allocate()
        ops = generate_ops(
            topology, random.Random(seed * 1_000_003 + 1), self.op_budget
        )
        return harp, TopologyManager(harp), ops

    def run(self, state, seed, units, fill_s, tracer=None) -> Pass:
        harp, manager, ops = state
        result = Pass()
        messages: List[int] = []
        rebootstraps = 0
        cache_before = harp.composition_cache.stats()
        started = time.perf_counter()
        with _traced(tracer):
            for op in ops[:units]:
                report = self._apply(manager, op, result, tracer, fixed=True)
                if report is not None:
                    messages.append(report.total_messages)
                    rebootstraps += bool(getattr(report, "rebootstrapped", 0))
        cache_after = harp.composition_cache.stats()
        digest = check_network(harp, "churn after fixed ops")
        delivered, created, latencies, probe_digest = probe(
            harp.topology, harp.schedule, harp.task_set, harp.config, seed,
            "churn probe",
        )
        for op in ops[units:]:
            if time.perf_counter() - started >= fill_s:
                break
            self._apply(manager, op, result, None, fixed=False)
        check_network(harp, "churn at end of run")
        result.digest = combine([digest, probe_digest])
        result.sim = {
            "delivery_ratio": delivered / created,
            "messages_per_op": statistics.fmean(messages) if messages else 0.0,
            "rebootstraps": float(rebootstraps),
            **_latency_figures(latencies),
        }
        result.counters = {
            "cache_hits": cache_after["hits"] - cache_before["hits"],
            "cache_misses": cache_after["misses"] - cache_before["misses"],
        }
        return result

    @staticmethod
    def _apply(manager, op: Op, result: Pass, tracer, fixed: bool):
        kind, node, parent, rate = op
        result.attempted += 1
        result.fixed_attempted += fixed
        result.pace.sample()
        start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(f"dynamics.{kind}"):
                    report = manager.apply_event(kind, node, parent, rate)
            else:
                report = manager.apply_event(kind, node, parent, rate)
        except Exception:
            # The op's failure is counted, not hidden; a state it left
            # broken is caught by the gate after the fixed ops.
            _fail(result, fixed, f"churn {kind} {node}")
            return None
        ms = (time.perf_counter() - start) * 1000.0
        result.record(ms)
        result.by_kind_ms.setdefault(kind, []).append(ms)
        if not report.success:
            result.failed += 1
            result.fixed_failed += fixed
        return report


# ----------------------------------------------------------------------
# floor: live episodes with staggered router crashes
# ----------------------------------------------------------------------


@dataclass
class _Episode:
    live: LiveHarpNetwork
    crashes: List[Tuple[int, int]]
    start_slot: int


class Floor(Workload):
    """Live episodes on a fixed 40-device factory floor: bootstrap over
    the air, e2e traffic at rate 1 per slotframe, then four staggered
    crashes of routers at depth 2 or more that the network self-heals.
    Which routers crash, and the radio's random stream, come from the
    seed."""

    name = "floor"
    unit_seconds = 4.0
    #: Which routers crash moves the heal cost by a quarter from one
    #: episode to the next, so a run plays at least this many episodes
    #: (and overruns a 20-second run length) to keep its figures steady.
    min_units = 10

    crashes = 4
    warmup_slotframes = 5
    #: Slotframes requested after the warm-up (heals nest more).
    slotframes = 20
    crash_gap_slotframes = 2

    def __init__(self) -> None:
        self.topology = topology = layered_random_tree(40, 4, random.Random(7))
        self.config = SlotframeConfig(num_slots=400, management_slots=84)
        self.lifetime = 10 * self.config.num_slots
        self.crash_gap = self.crash_gap_slotframes * self.config.num_slots
        self.candidates = sorted(
            n for n in topology.non_leaf_nodes()
            if n != topology.gateway_id and topology.depth_of(n) >= 2
        )

    def episode(self, seed: int, index: int) -> _Episode:
        """Build and bootstrap episode ``index`` of run ``seed``."""
        stream = seed * 1_000_003 + index
        live = LiveHarpNetwork(
            self.topology,
            e2e_task_per_node(self.topology, rate=1.0),
            self.config,
            rng=random.Random(stream),
            max_packet_age_slots=self.lifetime,
        )
        live.bootstrap()
        start = live.sim.current_slot
        victims = random.Random(stream).sample(self.candidates, self.crashes)
        first = (
            start + self.warmup_slotframes * self.config.num_slots
            + self.config.num_slots // 2
        )
        crashes = [
            (node, first + i * self.crash_gap)
            for i, node in enumerate(victims)
        ]
        live.fault_plan = FaultPlan.staggered_crashes(crashes)
        live.sim.fault_plan = live.fault_plan
        return _Episode(live, crashes, start)

    @staticmethod
    def max_episodes(units: int) -> int:
        """Cap on the fixed work when no episode completes."""
        return 4 * units

    def prepare(self, seed, units, repeats=None):
        episodes, times = [], []
        pace = Pace()
        for index in range(units):
            pace.sample()
            start = time.perf_counter()
            episodes.append(self.episode(seed, index))
            elapsed = time.perf_counter() - start
            pace.sample()
            times.append(elapsed * pace.scale())
        return episodes, times

    def run(self, state, seed, units, fill_s, tracer=None) -> Pass:
        result = Pass()
        outcomes = []
        started = time.perf_counter()
        episodes = list(state)
        with _traced(tracer):
            # The fixed work is the prepared episodes, extended in index
            # order until one completes, so a run always has a healed
            # network to report on; every failure still counts.
            while episodes or not any(ok for _, ok in outcomes):
                if episodes:
                    episode = episodes.pop(0)
                elif len(outcomes) >= self.max_episodes(units):
                    break
                else:
                    episode = self.episode(seed, len(outcomes))
                outcomes.append(
                    (episode, self._play(episode, result, tracer, True))
                )
        index = len(outcomes)
        while time.perf_counter() - started < fill_s:
            extra = self.episode(seed, index)
            index += 1
            self._play(extra, result, None, False)
        self._summarise(outcomes, seed, result)
        return result

    def _play(self, episode: _Episode, result: Pass, tracer, fixed) -> bool:
        live = episode.live
        result.attempted += 1
        result.fixed_attempted += fixed
        for _ in range(self.warmup_slotframes + self.slotframes):
            before = live.sim.current_slot
            result.pace.sample()
            start = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("live.slotframe"):
                        live.run_slotframes(1)
                else:
                    live.run_slotframes(1)
            except Exception:
                ms = (time.perf_counter() - start) * 1000.0
                slots = live.sim.current_slot - before
                if slots:
                    result.record(ms, slots)
                _fail(result, fixed, f"floor episode at slot {before}")
                return False
            ms = (time.perf_counter() - start) * 1000.0
            result.record(ms, live.sim.current_slot - before)
        return True

    def _summarise(self, outcomes, seed: int, result: Pass) -> None:
        delivered = created = 0
        latencies: List[int] = []
        healed: List[int] = []
        recoveries: List[float] = []
        unrecovered = 0
        digests: List[str] = []
        totals: Dict[str, float] = {}
        for i, (episode, completed) in enumerate(outcomes):
            live = episode.live
            label = f"floor episode {i}"
            digests.append(check_engine(live.sim, label))
            for key, value in (
                ("messages_sent", live.stats.messages_sent),
                ("messages_lost", live.stats.messages_lost),
                ("dead_lettered", live.stats.messages_dead_lettered),
                ("heals_completed", live.stats.heals_completed),
                ("rebootstraps", live.stats.rebootstraps),
            ):
                totals[key] = totals.get(key, 0.0) + value
            cache = live.composition_cache_stats
            totals["cache_hits"] = totals.get("cache_hits", 0) + cache["hits"]
            totals["cache_misses"] = (
                totals.get("cache_misses", 0) + cache["misses"]
            )
            metrics = live.sim.metrics
            first_crash = episode.crashes[0][1]
            # Latency of the network bootstrapped over the air, under
            # load, before the first crash (every episode has this).
            latencies.extend(
                r.latency_slots for r in metrics.deliveries
                if episode.start_slot <= r.created_slot
                and r.delivered_slot < first_crash
            )
            if not completed:
                digests.append(f"failed@{live.sim.current_slot}")
                continue
            check_schedule(live.schedule, live.topology, label)
            end = live.sim.current_slot - self.lifetime
            created += sum(
                1 for s in metrics.generation_slots
                if episode.start_slot <= s < end
            )
            delivered += sum(
                1 for r in metrics.deliveries
                if episode.start_slot <= r.created_slot < end
            )
            baseline = metrics.delivery_ratio_between(
                episode.start_slot, first_crash
            )
            for _, crash_slot in episode.crashes:
                slots = recovery_slots(metrics, crash_slot, baseline, end)
                if slots is None:
                    unrecovered += 1
                else:
                    recoveries.append(float(slots))
            got, _, lat, probe_digest = probe(
                live.topology, live.schedule, live.task_set, self.config,
                seed, f"{label} probe", slotframes=11,
            )
            healed.extend(lat)
            digests.append(probe_digest)
        completed = sum(1 for _, ok in outcomes if ok)
        result.digest = combine(digests)
        result.sim = {
            "delivery_ratio": delivered / created if created else 0.0,
            "recovery_slots_p50": (
                statistics.median(recoveries) if recoveries else 0.0
            ),
            "recoveries": float(len(recoveries)),
            "unrecovered": float(unrecovered),
            "episodes_completed": float(completed),
            "messages_per_op": (
                totals.get("messages_sent", 0.0) / len(outcomes)
                if outcomes else 0.0
            ),
            "healed_latency_p50_slots": percentile(healed, 50),
            "healed_latency_p99_slots": percentile(healed, 99),
            **_latency_figures(latencies),
        }
        result.counters = totals


# ----------------------------------------------------------------------
# telemetry: the engine alone on a large, lightly loaded network
# ----------------------------------------------------------------------


class Telemetry(Workload):
    """:class:`TSCHSimulator` alone on a large network with light
    traffic: the engine's skip-dominated regime."""

    name = "telemetry"
    #: Host seconds per chunk on the calibration box.  Every task starts
    #: generating at slot 0, so at rate 0.05 the whole network bursts
    #: once per 20 slotframes and then drains; a chunk is one such
    #: period, so every chunk carries the same load.
    unit_seconds = 2.4

    rate = 0.05

    def __init__(self, devices: int = 10000, depth: int = 8) -> None:
        self.devices = devices
        self.depth = depth

    def setup(self, seed: int):
        topology, tasks, config = _scale_inputs(
            self.devices, self.depth, seed, rate=self.rate
        )
        harp = HarpNetwork(
            topology, tasks, config, case1_slack=1, distribute_slack=True
        )
        harp.allocate()
        return TSCHSimulator(
            topology, harp.schedule, tasks, config,
            rng=random.Random(seed),
            max_packet_age_slots=10 * config.num_slots,
        )

    def run(self, sim, seed, units, fill_s, tracer=None) -> Pass:
        result = Pass()
        chunk = round(sim.config.num_slots / self.rate)
        started = time.perf_counter()
        with _traced(tracer):
            for _ in range(units):
                self._chunk(sim, chunk, result, fixed=True)
        digest = check_engine(sim, "telemetry after fixed slots")
        metrics = sim.metrics
        # Packets older than the lifetime are resolved: delivered or
        # expired.
        window = max(1, sim.current_slot - sim.max_packet_age_slots)
        latencies = [
            r.latency_slots for r in metrics.deliveries
            if r.created_slot < window
        ]
        result.sim = {
            "delivery_ratio": metrics.delivery_ratio_between(0, window),
            **_latency_figures(latencies),
        }
        result.digest = digest
        while time.perf_counter() - started < fill_s:
            self._chunk(sim, chunk, result, fixed=False)
        check_engine(sim, "telemetry at end of run")
        return result

    @staticmethod
    def _chunk(sim, slots: int, result: Pass, fixed: bool) -> None:
        result.attempted += 1
        result.fixed_attempted += fixed
        before = sim.current_slot
        result.pace.sample()
        start = time.perf_counter()
        sim.run_slots(slots)
        ms = (time.perf_counter() - start) * 1000.0
        result.record(ms, sim.current_slot - before)


WORKLOADS = {
    w.name: w for w in (Bootstrap, Churn, Floor, Telemetry)
}

"""JSON (de)serialization of network state.

A deployed gateway persists its view of the network — topology, task
set, partition table and the active schedule — so it can survive
restarts without re-running the whole static phase, and so operators can
inspect or diff configurations.  This module provides stable, versioned
JSON round-trips for all four.

Beyond the static configuration, long simulations persist *progress*:
:func:`dump_progress` snapshots a running
:class:`~repro.net.sim.engine.TSCHSimulator` — current slot, queue
contents in order, per-task generation phase, RNG state and the full
metrics ledger — and :func:`restore_progress` rebuilds an identical
simulator from it, so a run resumed from a snapshot is bitwise-equal to
one that never stopped.  :func:`dump_run_snapshot` wraps a network
snapshot and a progress snapshot into one resumable document (the fleet
orchestrator's checkpoint unit).

All functions return plain JSON-compatible dicts (``json.dumps``-ready);
the ``load_*``/``restore_*`` counterparts validate structure and
versions, raising :class:`SerializationError` on malformed or
version-skewed documents.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import deque
from typing import Any, Dict, List

from ..core.partition import Partition, PartitionTable
from ..packing.geometry import PlacedRect
from .slotframe import Cell, Schedule, SlotframeConfig
from .tasks import Task, TaskSet
from .topology import Direction, LinkRef, TreeTopology

#: Format version stamped into every document.
FORMAT_VERSION = 1


class SerializationError(ValueError):
    """Malformed or incompatible serialized document."""


def _check_version(document: Dict[str, Any], kind: str) -> None:
    if document.get("kind") != kind:
        raise SerializationError(
            f"expected a {kind!r} document, got {document.get('kind')!r}"
        )
    if document.get("version") != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported {kind} version {document.get('version')!r}"
        )


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------


def dump_topology(topology: TreeTopology) -> Dict[str, Any]:
    """Topology -> JSON dict."""
    return {
        "kind": "topology",
        "version": FORMAT_VERSION,
        "gateway": topology.gateway_id,
        "parents": {str(c): p for c, p in sorted(topology.parent_map.items())},
    }


def load_topology(document: Dict[str, Any]) -> TreeTopology:
    """JSON dict -> Topology (validating tree structure)."""
    _check_version(document, "topology")
    parent_map = {int(c): int(p) for c, p in document["parents"].items()}
    return TreeTopology(parent_map, gateway_id=int(document["gateway"]))


# ----------------------------------------------------------------------
# tasks
# ----------------------------------------------------------------------


def dump_task_set(task_set: TaskSet) -> Dict[str, Any]:
    """Task set -> JSON dict."""
    return {
        "kind": "tasks",
        "version": FORMAT_VERSION,
        "tasks": [
            {
                "id": t.task_id,
                "source": t.source,
                "rate": t.rate,
                "echo": t.echo,
                "destination": t.destination,
                "deadline_slotframes": t.deadline_slotframes,
            }
            for t in task_set
        ],
    }


def load_task_set(document: Dict[str, Any]) -> TaskSet:
    """JSON dict -> task set."""
    _check_version(document, "tasks")
    return TaskSet(
        [
            Task(
                task_id=int(entry["id"]),
                source=int(entry["source"]),
                rate=float(entry["rate"]),
                echo=bool(entry["echo"]),
                destination=(
                    None
                    if entry.get("destination") is None
                    else int(entry["destination"])
                ),
                deadline_slotframes=(
                    None
                    if entry.get("deadline_slotframes") is None
                    else float(entry["deadline_slotframes"])
                ),
            )
            for entry in document["tasks"]
        ]
    )


# ----------------------------------------------------------------------
# schedule
# ----------------------------------------------------------------------


def dump_schedule(schedule: Schedule) -> Dict[str, Any]:
    """Schedule -> JSON dict (config included)."""
    config = schedule.config
    links: List[Dict[str, Any]] = []
    for link in sorted(
        schedule.links, key=lambda l: (l.direction.value, l.child)
    ):
        links.append(
            {
                "child": link.child,
                "direction": link.direction.value,
                "cells": [[c.slot, c.channel] for c in schedule.cells_of(link)],
            }
        )
    return {
        "kind": "schedule",
        "version": FORMAT_VERSION,
        "config": {
            "num_slots": config.num_slots,
            "num_channels": config.num_channels,
            "slot_duration_s": config.slot_duration_s,
            "management_slots": config.management_slots,
        },
        "links": links,
    }


def load_schedule(document: Dict[str, Any]) -> Schedule:
    """JSON dict -> schedule."""
    _check_version(document, "schedule")
    cfg = document["config"]
    config = SlotframeConfig(
        num_slots=int(cfg["num_slots"]),
        num_channels=int(cfg["num_channels"]),
        slot_duration_s=float(cfg["slot_duration_s"]),
        management_slots=int(cfg.get("management_slots", 0)),
    )
    schedule = Schedule(config)
    for entry in document["links"]:
        link = LinkRef(int(entry["child"]), Direction(entry["direction"]))
        for slot, channel in entry["cells"]:
            schedule.assign(Cell(int(slot), int(channel)), link)
    return schedule


# ----------------------------------------------------------------------
# partitions
# ----------------------------------------------------------------------


def dump_partitions(partitions: PartitionTable) -> Dict[str, Any]:
    """Partition table -> JSON dict."""
    return {
        "kind": "partitions",
        "version": FORMAT_VERSION,
        "partitions": [
            {
                "owner": p.owner,
                "layer": p.layer,
                "direction": p.direction.value,
                "region": [p.region.x, p.region.y,
                           p.region.width, p.region.height],
            }
            for p in partitions
        ],
    }


def load_partitions(document: Dict[str, Any]) -> PartitionTable:
    """JSON dict -> partition table."""
    _check_version(document, "partitions")
    table = PartitionTable()
    for entry in document["partitions"]:
        x, y, width, height = entry["region"]
        table.set(
            Partition(
                owner=int(entry["owner"]),
                layer=int(entry["layer"]),
                direction=Direction(entry["direction"]),
                region=PlacedRect(
                    int(x), int(y), int(width), int(height),
                    int(entry["owner"]),
                ),
            )
        )
    return table


# ----------------------------------------------------------------------
# whole-network snapshot
# ----------------------------------------------------------------------


def dump_network(harp) -> Dict[str, Any]:
    """Snapshot a :class:`~repro.core.manager.HarpNetwork` after
    allocation: topology + tasks + partitions + schedule."""
    return {
        "kind": "harp-network",
        "version": FORMAT_VERSION,
        "topology": dump_topology(harp.topology),
        "tasks": dump_task_set(harp.task_set),
        "partitions": dump_partitions(harp.partitions),
        "schedule": dump_schedule(harp.schedule),
    }


def save_network(harp, path: str) -> None:
    """Write a network snapshot to ``path`` as JSON."""
    with open(path, "w") as handle:
        json.dump(dump_network(harp), handle, indent=2, sort_keys=True)


def load_network(document: Dict[str, Any]):
    """Restore (topology, task_set, partitions, schedule) from a
    snapshot produced by :func:`dump_network`."""
    _check_version(document, "harp-network")
    return (
        load_topology(document["topology"]),
        load_task_set(document["tasks"]),
        load_partitions(document["partitions"]),
        load_schedule(document["schedule"]),
    )


def load_network_file(path: str):
    """Restore a snapshot written by :func:`save_network`."""
    with open(path) as handle:
        return load_network(json.load(handle))


# ----------------------------------------------------------------------
# engine progress (mid-run state of a TSCHSimulator)
# ----------------------------------------------------------------------
#
# The progress document reaches into the engine's internals on purpose:
# the queue order, generation phase and RNG state *are* the simulation,
# and a snapshot that loses any of them cannot promise bitwise-equal
# resumption.  The engine and this module evolve together (same
# package, same tests).

#: Compact packet encoding: [task_id, seq, source, destination,
#: created_slot, echo].  Node and direction come from the queue the
#: packet sits in.
_PACKET_FIELDS = 6


def _dump_packet(packet) -> List[Any]:
    return [
        packet.task_id,
        packet.seq,
        packet.source,
        packet.destination,
        packet.created_slot,
        packet.echo,
    ]


def _dump_queues(queues: Dict[int, Any]) -> List[List[Any]]:
    """Per-node queue contents, in queue order, empty queues omitted,
    nodes sorted for deterministic re-dumps."""
    return [
        [node, [_dump_packet(p) for p in queue]]
        for node, queue in sorted(queues.items())
        if queue
    ]


def _dump_metrics(metrics) -> Dict[str, Any]:
    return {
        "generated": metrics.generated,
        "dropped": metrics.dropped,
        "collision_failures": metrics.collision_failures,
        "half_duplex_failures": metrics.half_duplex_failures,
        "loss_failures": metrics.loss_failures,
        "transmissions_attempted": metrics.transmissions_attempted,
        "transmissions_succeeded": metrics.transmissions_succeeded,
        "deadline_misses": metrics.deadline_misses,
        "fault_failures": metrics.fault_failures,
        "fault_drops": metrics.fault_drops,
        "expired_drops": metrics.expired_drops,
        "queue_overflow_drops": metrics.queue_overflow_drops,
        "misses_by_source": {
            str(k): v for k, v in sorted(metrics.misses_by_source.items())
        },
        "max_queue_depth": {
            str(k): v for k, v in sorted(metrics.max_queue_depth.items())
        },
        "generation_slots": list(metrics.generation_slots),
        "phase_marks": [[slot, label] for slot, label in metrics.phase_marks],
        "deliveries": [
            [r.task_id, r.seq, r.source, r.created_slot, r.delivered_slot]
            for r in metrics.deliveries
        ],
    }


def dump_progress(sim) -> Dict[str, Any]:
    """Mid-run state of a :class:`~repro.net.sim.engine.TSCHSimulator`
    -> JSON dict.

    Captures everything the engine needs to resume bitwise-identically:
    current slot, queue contents in order, per-task generation phase and
    sequence counters, crashed-node set, RNG state and the full metrics
    ledger.  The static configuration (topology / tasks / schedule) and
    the fault plan are *not* included — pair this document with a
    network snapshot (see :func:`dump_run_snapshot`) and rebuild those
    by construction.  Stateful loss models are out of scope: the engine
    RNG is captured, so any loss model that samples only from it
    resumes exactly.
    """
    return {
        "kind": "engine-progress",
        "version": FORMAT_VERSION,
        "slot": sim.current_slot,
        "traffic_enabled": sim.traffic_enabled,
        "down_nodes": sorted(sim.down_nodes),
        # random.Random.getstate(): (version, (int, ...), gauss_next)
        "rng": [
            sim.rng.getstate()[0],
            list(sim.rng.getstate()[1]),
            sim.rng.getstate()[2],
        ],
        "tasks": [
            {
                "id": state.task.task_id,
                "source": state.task.source,
                "rate": state.task.rate,
                "echo": state.task.echo,
                "destination": state.task.destination,
                "deadline_slotframes": state.task.deadline_slotframes,
                "next_generation": state.next_generation,
                "next_seq": state.next_seq,
            }
            for _, state in sorted(sim._tasks.items())
        ],
        "uplink": _dump_queues(sim._uplink_q),
        "downlink": _dump_queues(sim._downlink_q),
        "metrics": _dump_metrics(sim.metrics),
    }


def restore_progress(sim, document: Dict[str, Any]) -> None:
    """Rebuild a simulator's mid-run state from a :func:`dump_progress`
    document.

    ``sim`` must be freshly constructed over the *same* topology,
    schedule, task set and config the snapshot was taken from (restore
    replaces its queues, task phases, RNG state and metrics wholesale).
    Raises :class:`SerializationError` on malformed documents — the
    simulator is only mutated after the whole document parses.
    """
    from .sim.engine import Packet, _TaskState
    from .sim.metrics import DeliveryRecord

    _check_version(document, "engine-progress")
    try:
        slot = int(document["slot"])
        traffic_enabled = bool(document["traffic_enabled"])
        down_nodes = {int(n) for n in document["down_nodes"]}
        rng_doc = document["rng"]
        rng_state = (
            int(rng_doc[0]),
            tuple(int(v) for v in rng_doc[1]),
            None if rng_doc[2] is None else float(rng_doc[2]),
        )
        tasks: List[Dict[str, Any]] = []
        for entry in document["tasks"]:
            tasks.append(
                {
                    "task": Task(
                        task_id=int(entry["id"]),
                        source=int(entry["source"]),
                        rate=float(entry["rate"]),
                        echo=bool(entry["echo"]),
                        destination=(
                            None
                            if entry.get("destination") is None
                            else int(entry["destination"])
                        ),
                        deadline_slotframes=(
                            None
                            if entry.get("deadline_slotframes") is None
                            else float(entry["deadline_slotframes"])
                        ),
                    ),
                    "next_generation": float(entry["next_generation"]),
                    "next_seq": int(entry["next_seq"]),
                }
            )
        queues: Dict[Direction, List] = {}
        for key, direction in (
            ("uplink", Direction.UP),
            ("downlink", Direction.DOWN),
        ):
            parsed = []
            for node, packets in document[key]:
                decoded = []
                for fields in packets:
                    if len(fields) != _PACKET_FIELDS:
                        raise ValueError(
                            f"packet encoding has {len(fields)} fields, "
                            f"expected {_PACKET_FIELDS}"
                        )
                    decoded.append(
                        Packet(
                            task_id=int(fields[0]),
                            seq=int(fields[1]),
                            source=int(fields[2]),
                            destination=int(fields[3]),
                            direction=direction,
                            created_slot=int(fields[4]),
                            echo=bool(fields[5]),
                            current_node=int(node),
                            in_queue=True,
                        )
                    )
                parsed.append((int(node), decoded))
            queues[direction] = parsed
        mdoc = document["metrics"]
        deliveries = [
            DeliveryRecord(
                task_id=int(d[0]),
                seq=int(d[1]),
                source=int(d[2]),
                created_slot=int(d[3]),
                delivered_slot=int(d[4]),
            )
            for d in mdoc["deliveries"]
        ]
        counters = {
            name: int(mdoc[name])
            for name in (
                "generated", "dropped", "collision_failures",
                "half_duplex_failures", "loss_failures",
                "transmissions_attempted", "transmissions_succeeded",
                "deadline_misses", "fault_failures", "fault_drops",
                "expired_drops", "queue_overflow_drops",
            )
        }
        misses_by_source = {
            int(k): int(v) for k, v in mdoc["misses_by_source"].items()
        }
        max_queue_depth = {
            int(k): int(v) for k, v in mdoc["max_queue_depth"].items()
        }
        generation_slots = [int(s) for s in mdoc["generation_slots"]]
        phase_marks = [(int(s), str(label)) for s, label in mdoc["phase_marks"]]
    except (KeyError, TypeError, ValueError, IndexError) as error:
        raise SerializationError(
            f"malformed engine-progress document: {error}"
        ) from error

    # -- parse succeeded; apply wholesale --------------------------------
    sim.current_slot = slot
    sim.traffic_enabled = traffic_enabled
    sim.down_nodes = down_nodes
    sim.rng.setstate(rng_state)

    sim._tasks = {}
    sim._task_sources = {}
    sim._gen_heap = []
    for entry in tasks:
        task = entry["task"]
        sim._tasks[task.task_id] = _TaskState(
            task=task,
            next_generation=entry["next_generation"],
            period_slots=sim.config.num_slots / task.rate,
            next_seq=entry["next_seq"],
        )
        sim._task_sources[task.source] = (
            sim._task_sources.get(task.source, 0) + 1
        )
        heapq.heappush(
            sim._gen_heap,
            (max(0, math.ceil(entry["next_generation"])), task.task_id),
        )

    for queue in sim._uplink_q.values():
        queue.clear()
    for queue in sim._downlink_q.values():
        queue.clear()
    total = 0
    sim._ttl_heap = []
    sim._ttl_serial = 0
    for direction, target in (
        (Direction.UP, sim._uplink_q),
        (Direction.DOWN, sim._downlink_q),
    ):
        for node, packets in queues[direction]:
            queue = target.setdefault(node, deque())
            for packet in packets:
                queue.append(packet)
                total += 1
                if sim.max_packet_age_slots is not None:
                    sim._ttl_serial += 1
                    heapq.heappush(
                        sim._ttl_heap,
                        (
                            packet.created_slot + sim.max_packet_age_slots,
                            sim._ttl_serial,
                            packet,
                        ),
                    )
    sim._queued_total = total

    metrics = sim.metrics
    metrics.deliveries = deliveries
    metrics.misses_by_source = misses_by_source
    metrics.max_queue_depth = max_queue_depth
    metrics.generation_slots = generation_slots
    metrics.phase_marks = phase_marks
    for name, value in counters.items():
        setattr(metrics, name, value)


# ----------------------------------------------------------------------
# resumable run snapshots (network + progress in one document)
# ----------------------------------------------------------------------


def dump_run_snapshot(
    network: Dict[str, Any],
    progress: Dict[str, Any],
    label: str = "",
    slotframes_done: int = 0,
    fingerprint: str = "",
) -> Dict[str, Any]:
    """Bundle a network snapshot and a progress snapshot into one
    resumable document — the checkpoint unit of the fleet orchestrator.

    ``fingerprint`` identifies the workload that produced the snapshot
    (the fleet uses the scenario fingerprint) so a resume never applies
    a stale checkpoint to a different run.
    """
    _check_version(network, "harp-network")
    _check_version(progress, "engine-progress")
    return {
        "kind": "run-snapshot",
        "version": FORMAT_VERSION,
        "label": str(label),
        "slotframes_done": int(slotframes_done),
        "fingerprint": str(fingerprint),
        "network": network,
        "progress": progress,
    }


def load_run_snapshot(document: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a run snapshot and return it (network and progress
    sub-documents version-checked)."""
    _check_version(document, "run-snapshot")
    try:
        _check_version(document["network"], "harp-network")
        _check_version(document["progress"], "engine-progress")
        int(document["slotframes_done"])
        str(document["fingerprint"])
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(
            f"malformed run-snapshot document: {error}"
        ) from error
    return document

"""The 100 -> 100k scale ladder and the static-phase profile
(``repro bench`` and ``repro profile``).

The repository's performance record is the ``perfbench`` benchmark
(``python3 perfbench/run.py``): four fixed workloads, compared parent
vs change on the same box.  This module covers what those workloads do
not: the same pipeline measured at growing network sizes.  Per size
the ladder times three arms on one seeded depth-8 tree:

* **static** — allocation plus the invariant certificate;
* **storm** — a scripted dynamics storm (rate changes, joins, parent
  switches, leaves); only the ops are timed, victim selection is not;
* **engine** — a light-traffic engine burst over a wide slotframe.

Every report carries its own provenance (:func:`collect_meta`) and is
written fresh; nothing here compares against numbers measured on
another box or at another sha.
"""

from __future__ import annotations

import os
import platform
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence

from .core.interface_gen import InterfaceTable, generate_node_interface
from .core.manager import HarpNetwork
from .net.sim.engine import TSCHSimulator
from .net.slotframe import SlotframeConfig
from .net.tasks import Task, demands_by_parent, e2e_task_per_node
from .net.topology import (
    Direction,
    LinkRef,
    TreeTopology,
    layered_random_tree,
)
from .packing.composition import CompositionCache

#: Tree depth of every ladder topology: deep enough that the hierarchy
#: matters, constant so per-size numbers are comparable.
SCALE_DEPTH = 8

#: Dynamics ops per storm, cycling rate change / attach / reparent /
#: detach.
STORM_OPS = 12

#: Engine-burst horizon in slotframes.
ENGINE_SLOTFRAMES = 3


def _scale_network(n: int, seed: int = 7, rate: float = 1.0):
    """The ladder workload at ``n`` devices: a depth-8 layered random
    tree, a slotframe wide enough for the demand, one e2e task per
    device."""
    topology = layered_random_tree(n, SCALE_DEPTH, random.Random(seed + n))
    config = SlotframeConfig(num_slots=max(199, 8 * n), num_channels=16)
    tasks = e2e_task_per_node(topology, rate=rate)
    return topology, tasks, config


def bench_scale_static(n: int, seed: int = 7) -> Dict[str, object]:
    """Static allocation + invariant validation wall time at ``n`` nodes.

    The returned ``cache`` block carries the composition-cache counters
    of the run.
    """
    topology, tasks, config = _scale_network(n, seed)
    start = time.perf_counter()
    harp = HarpNetwork(
        topology, tasks, config, case1_slack=1, distribute_slack=True
    )
    harp.allocate()
    harp.validate()
    elapsed = time.perf_counter() - start
    return {
        "seconds": elapsed,
        "nodes_per_sec": n / elapsed,
        "cells": float(harp.schedule.total_assignments),
        "cache": harp.stats["composition_cache"],
    }


def bench_scale_storm(n: int, seed: int = 7) -> Dict[str, float]:
    """A scripted dynamics storm: :data:`STORM_OPS` rate changes, joins,
    parent switches and leaves interleaved on one allocated network.

    The op script is a pure function of (n, seed) and of the network
    state it evolves.  Picking each op's victim scans the whole tree,
    so it happens outside the timer: ``seconds`` sums the time of the
    executed ops alone.
    """
    from .core.dynamics import TopologyManager

    topology, tasks, config = _scale_network(n, seed)
    harp = HarpNetwork(
        topology, tasks, config, case1_slack=1, distribute_slack=True
    )
    harp.allocate()
    manager = TopologyManager(harp)
    rng = random.Random(seed * 1000 + n)
    next_id = max(harp.topology.nodes) + 1
    seconds = 0.0
    executed = succeeded = 0

    for i in range(STORM_OPS):
        kind = ("rate", "attach", "reparent", "detach")[i % 4]
        topo = harp.topology
        if kind == "rate":
            node = rng.choice(list(topo.device_nodes))
            task_ids = [t.task_id for t in harp.task_set if t.source == node]
            if not task_ids:
                continue
            old = harp.task_set.by_id(task_ids[0]).rate
            op = partial(
                harp.request_rate_change,
                task_ids[0], 1.5 if old <= 1.0 else 1.0,
            )
        elif kind == "attach":
            parent = rng.choice(list(topo.device_nodes))
            op = partial(
                manager.attach, next_id, parent,
                Task(task_id=next_id, source=next_id, rate=1.0),
            )
            next_id += 1
        else:
            leaves = [d for d in topo.device_nodes if topo.is_leaf(d)]
            if not leaves:
                continue
            leaf = rng.choice(leaves)
            if kind == "reparent":
                candidates = [
                    d for d in topo.device_nodes
                    if d != leaf and topo.depth_of(d) < topo.max_layer
                ]
                if not candidates:
                    continue
                op = partial(manager.reparent, leaf, rng.choice(candidates))
            else:
                op = partial(manager.detach, leaf)
        start = time.perf_counter()
        report = op()
        seconds += time.perf_counter() - start
        executed += 1
        succeeded += bool(report.success)
    return {
        "seconds": seconds,
        "ops": float(executed),
        "ops_per_sec": executed / seconds,
        "succeeded": float(succeeded),
    }


def bench_scale_engine(n: int, seed: int = 7) -> Dict[str, float]:
    """Engine burst at ``n`` nodes: light traffic over a wide slotframe
    for :data:`ENGINE_SLOTFRAMES` slotframes, exactly where the
    event-skipping core should shine."""
    topology, tasks, config = _scale_network(n, seed, rate=0.05)
    harp = HarpNetwork(
        topology, tasks, config, case1_slack=1, distribute_slack=True
    )
    harp.allocate()
    sim = TSCHSimulator(
        topology, harp.schedule, tasks, config,
        rng=random.Random(seed),
        max_packet_age_slots=10 * config.num_slots,
    )
    slots = ENGINE_SLOTFRAMES * config.num_slots
    start = time.perf_counter()
    sim.run_slots(slots)
    elapsed = time.perf_counter() - start
    return {
        "seconds": elapsed,
        "slots_per_sec": slots / elapsed,
        "delivered": float(len(sim.metrics.deliveries)),
        "generated": float(sim.metrics.generated),
    }


#: The ladder arms, in run order.
SCALE_ARMS = {
    "static": bench_scale_static,
    "storm": bench_scale_storm,
    "engine": bench_scale_engine,
}


def run_scale_benchmarks(
    sizes: Sequence[int], seed: int = 7
) -> Dict[str, object]:
    """Run every ladder arm at every size; returns the report dict,
    provenance included."""
    return {
        "meta": collect_meta(seed=seed),
        "sizes": list(sizes),
        "seed": seed,
        "storm_ops": STORM_OPS,
        "engine_slotframes": ENGINE_SLOTFRAMES,
        "points": {
            str(n): {arm: run(n, seed) for arm, run in SCALE_ARMS.items()}
            for n in sizes
        },
    }


def render_scale_report(scale: Dict[str, object]) -> str:
    """Human-readable ladder table, followed by the per-size
    composition-cache counters of the static arm."""
    lines = [
        "   nodes   static s     storm s    storm op/s   engine slots/s",
        "  ------  ----------  ----------  -----------  ---------------",
    ]
    for n in scale["sizes"]:
        p = scale["points"][str(n)]
        lines.append(
            f"  {n:>6}  {p['static']['seconds']:>10.3f}  "
            f"{p['storm']['seconds']:>10.3f}  "
            f"{p['storm']['ops_per_sec']:>11.2f}  "
            f"{p['engine']['slots_per_sec']:>15,.0f}"
        )
    lines.append("")
    lines.append("composition cache (static arm):")
    for n in scale["sizes"]:
        cache = scale["points"][str(n)]["static"]["cache"]
        lines.append(
            f"  N={n:<6} hits={cache['hits']} misses={cache['misses']}"
        )
    return "\n".join(lines)


def collect_meta(seed: Optional[int] = None) -> Dict[str, object]:
    """Provenance block for benchmark JSON: what ran where, when.

    A number without its python version, platform and git sha is just
    a number.  The sha is read from the checkout this package lives in,
    whatever the caller's working directory.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    meta: Dict[str, object] = {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_sha": sha,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if seed is not None:
        meta["seed"] = seed
    return meta


@dataclass
class WaveRow:
    """One depth wave of an instrumented static pass."""

    depth: int
    nodes: int = 0
    compositions: int = 0
    seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0


def static_wave_profile(
    topology: TreeTopology,
    link_demands: Mapping[LinkRef, int],
    num_channels: int,
    case1_slack: int = 0,
    cache: Optional[CompositionCache] = None,
) -> List[WaveRow]:
    """Time the bottom-up static pass (both directions) node by node.

    Each non-leaf node's :func:`~repro.core.interface_gen.
    generate_node_interface` call is timed, and its Algorithm-1
    compositions and cache hits/misses are read off the table and the
    :class:`CompositionCache` counters around the call.  Returns one
    row per depth wave, deepest first.
    """
    if cache is None:
        cache = CompositionCache()
    rows: Dict[int, WaveRow] = {}
    for direction in (Direction.UP, Direction.DOWN):
        table = InterfaceTable(direction=direction)
        per_parent = demands_by_parent(topology, link_demands, direction)
        for node in topology.nodes_bottom_up():
            if topology.is_leaf(node):
                continue
            depth = topology.depth_of(node)
            row = rows.setdefault(depth, WaveRow(depth=depth))
            hits, misses = cache.hits, cache.misses
            layouts = len(table.layouts)
            start = time.perf_counter()
            generate_node_interface(
                topology, table, node, per_parent.get(node, {}),
                num_channels, case1_slack, cache,
            )
            row.seconds += time.perf_counter() - start
            row.nodes += 1
            row.compositions += len(table.layouts) - layouts
            row.cache_hits += cache.hits - hits
            row.cache_misses += cache.misses - misses
    return [rows[d] for d in sorted(rows, reverse=True)]


def render_wave_profile(rows: Sequence[WaveRow]) -> str:
    """Human-readable per-wave table (both directions aggregated)."""
    lines = [
        "  wave   nodes  compositions   seconds   hit/miss",
        "  ----  ------  ------------  --------  ---------",
    ]
    for row in rows:
        lines.append(
            f"  d={row.depth:<3} {row.nodes:>6}  {row.compositions:>12}  "
            f"{row.seconds:>8.4f}  {row.cache_hits:>4}/{row.cache_misses}"
        )
    lines.append(
        f"  total {sum(r.seconds for r in rows):.4f}s "
        f"over {sum(r.nodes for r in rows)} node visits"
    )
    return "\n".join(lines)


def profile_scenario(
    scenario: str, size: int = 1000, top: int = 25, seed: int = 7
) -> str:
    """cProfile one scale scenario; returns the top-``top`` cumulative
    hot spots as text (the ``repro profile`` command).

    For the ``static`` scenario the cProfile listing is preceded by the
    per-wave breakdown of :func:`static_wave_profile`.
    """
    import cProfile
    import io
    import pstats

    if scenario not in SCALE_ARMS:
        raise ValueError(
            f"unknown scenario {scenario!r}; pick one of {sorted(SCALE_ARMS)}"
        )
    prefix = ""
    if scenario == "static":
        topology, tasks, config = _scale_network(size, seed)
        rows = static_wave_profile(
            topology,
            tasks.link_demands(topology),
            config.num_channels,
            case1_slack=1,
            cache=CompositionCache(),
        )
        prefix = (
            f"static waves at N={size} (deepest first, both directions):\n"
            + render_wave_profile(rows)
            + "\n\n"
        )
    profiler = cProfile.Profile()
    profiler.enable()
    SCALE_ARMS[scenario](size, seed)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    return prefix + stream.getvalue()

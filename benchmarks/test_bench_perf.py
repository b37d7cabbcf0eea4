"""Same-run performance gates that hold on any hardware.

Every gate here compares two arms measured in the same process on the
same box, so the thresholds are about the code, not the host:

* the event-skipping engine vs the slot-by-slot reference stepping of
  :func:`repro.verify.reference.run_slots_stepped`, with identical
  outcomes;
* a warm :class:`~repro.packing.composition.CompositionCache` vs cold
  Algorithm-1 packing;
* the shape and provenance of the ``repro bench`` scale ladder at
  N=100.

Absolute throughput is tracked by ``perfbench/run.py``, which compares
a change against its parent on one box.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_bench_perf.py``.
"""

import random
import time
from typing import Dict

import pytest

from repro.bench import run_scale_benchmarks
from repro.core.manager import HarpNetwork
from repro.net.sim.engine import TSCHSimulator
from repro.net.slotframe import SlotframeConfig
from repro.net.tasks import e2e_task_per_node
from repro.net.topology import regular_tree
from repro.packing.composition import CompositionCache, compose_components
from repro.packing.geometry import Rect
from repro.verify.reference import run_slots_stepped

#: Engine horizon in slotframes: a smoke guard, not a measurement.
SLOTFRAMES = 100

#: Algorithm-1 compositions per timed pass.
COMPOSITION_OPS = 5000

#: Timed passes per arm; each arm reports its fastest.
REPEATS = 3


def _engine_sim(rate: float) -> TSCHSimulator:
    """The engine workload: 40 nodes, e2e traffic at ``rate`` packets
    per task per slotframe, TTL tracking on.  Rate 0.2 is the standard
    load; rate 0.02 is the idle-heavy variant."""
    topology = regular_tree(depth=3, fanout=3)
    config = SlotframeConfig(num_slots=199, num_channels=16)
    tasks = e2e_task_per_node(topology, rate=rate)
    network = HarpNetwork(topology, tasks, config)
    network.allocate()
    return TSCHSimulator(
        topology,
        network.schedule,
        tasks,
        config,
        rng=random.Random(7),
        max_packet_age_slots=1000,
    )


def bench_engine(rate: float, reference: bool = False) -> Dict[str, float]:
    """Engine throughput in slots/second (plus outcome checksums).

    ``reference`` times the slot-by-slot reference stepping instead of
    the production event-skipping ``run_slots``.  Best of
    :data:`REPEATS` fresh runs: wall-clock on a shared box is noisy and
    the fastest run is the closest estimate of the code's cost.
    """
    best = None
    for _ in range(REPEATS):
        sim = _engine_sim(rate)
        slots = SLOTFRAMES * sim.config.num_slots
        start = time.perf_counter()
        if reference:
            run_slots_stepped(sim, slots)
        else:
            sim.run_slots(slots)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
            metrics = sim.metrics
    return {
        "slots_per_sec": slots / best,
        "delivered": float(len(metrics.deliveries)),
        "generated": float(metrics.generated),
    }


def _composition_pool(pool_size: int = 200, seed: int = 11):
    rng = random.Random(seed)
    return [
        [
            Rect(rng.randint(1, 12), rng.randint(1, 3), (i, j))
            for j in range(rng.randint(2, 8))
        ]
        for i in range(pool_size)
    ]


def bench_composition(cached: bool) -> Dict[str, float]:
    """Algorithm-1 compositions per second over a mixed multiset pool.

    With ``cached`` a shared :class:`CompositionCache` serves repeats
    (the adjustment-heavy access pattern); without it every call packs
    from scratch (the bootstrap pattern).  Best of :data:`REPEATS`
    timed passes, each cached pass on a fresh cache.
    """
    pool = _composition_pool()
    for rects in pool[:50]:   # warmup: exclude cold-start noise
        compose_components(rects, 16)
    best = None
    for _ in range(REPEATS):
        cache = CompositionCache() if cached else None
        start = time.perf_counter()
        for k in range(COMPOSITION_OPS):
            compose_components(pool[k % len(pool)], 16, cache)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
            best_cache = cache
    out = {"ops_per_sec": COMPOSITION_OPS / best}
    if cached:
        out["hit_rate"] = best_cache.hit_rate
    return out


@pytest.fixture(scope="module")
def engine():
    """Fast and reference arms of both engine workloads."""
    return {
        name: {
            "fast": bench_engine(rate=rate),
            "reference": bench_engine(rate=rate, reference=True),
        }
        for name, rate in (("standard", 0.2), ("idle", 0.02))
    }


def _skip_speedup(arms) -> float:
    return arms["fast"]["slots_per_sec"] / arms["reference"]["slots_per_sec"]


def test_engine_fast_path_beats_reference(engine):
    """The event-skipping core must crush the slot-by-slot reference
    stepping on the idle-heavy workload (the win there is ~7x, so 3.0
    leaves ample noise headroom).  On the busier standard workload
    skipping engages rarely, so only require no regression."""
    assert _skip_speedup(engine["idle"]) > 3.0
    assert _skip_speedup(engine["standard"]) > 0.85


def test_engine_outcomes_identical_across_paths(engine):
    """Fast and reference path must agree on what the simulation
    computed."""
    for arms in engine.values():
        assert arms["fast"]["delivered"] == arms["reference"]["delivered"]
        assert arms["fast"]["generated"] == arms["reference"]["generated"]


def test_composition_cache_speedup():
    """A warm composition cache must beat cold packing handily."""
    cold = bench_composition(cached=False)
    warm = bench_composition(cached=True)
    assert warm["ops_per_sec"] / cold["ops_per_sec"] > 2.0
    assert warm["hit_rate"] > 0.9


@pytest.fixture(scope="module")
def scale_report():
    # N=100 only: the nightly job runs the full ladder.
    return run_scale_benchmarks(sizes=(100,))


def test_scale_report_shape(scale_report):
    point = scale_report["points"]["100"]
    assert point["static"]["seconds"] > 0
    assert point["storm"]["ops_per_sec"] > 0
    assert point["storm"]["succeeded"] == point["storm"]["ops"]
    assert point["engine"]["slots_per_sec"] > 0
    assert "baseline" not in scale_report


def test_scale_meta_block_present(scale_report):
    meta = scale_report["meta"]
    for key in ("python", "platform", "machine", "timestamp", "seed"):
        assert key in meta


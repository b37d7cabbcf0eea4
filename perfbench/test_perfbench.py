"""The benchmark's own tests: the correctness gate trips on planted
faults, workloads repeat exactly for one seed, tracing changes nothing it
measures, the fast recovery count agrees with the program's, and the
manifest matches the committed files.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import manifest
import run
from gate import GateError, check_engine, check_network, check_same
from gate import check_schedule
from repro.core.manager import HarpNetwork
from repro.core.link_sched import build_schedule as original_build
from repro.net.sim.engine import TSCHSimulator
from repro.net.tasks import e2e_task_per_node
from repro.net.topology import layered_random_tree
from tracing import Tracer, instrument
from workloads import (
    Bootstrap,
    Churn,
    Floor,
    Pace,
    Telemetry,
    generate_ops,
    percentile,
    recovery_slots,
)

HERE = Path(__file__).resolve().parent


def _small_network(seed: int = 3) -> HarpNetwork:
    topology = layered_random_tree(60, 4, random.Random(seed))
    from repro.net.slotframe import SlotframeConfig

    harp = HarpNetwork(
        topology,
        e2e_task_per_node(topology),
        SlotframeConfig(num_slots=480, num_channels=16),
        case1_slack=1,
        distribute_slack=True,
    )
    harp.allocate()
    return harp


def _double_book(schedule) -> None:
    """Give one link's first cell to a second link as well."""
    first, second = sorted(schedule.links, key=str)[:2]
    schedule.assign(schedule.cells_of(first)[0], second)


# ----------------------------------------------------------------------
# the gate is not vacuous
# ----------------------------------------------------------------------


def test_gate_passes_on_a_clean_network():
    harp = _small_network()
    assert check_network(harp, "clean") == check_network(harp, "again")


def test_gate_trips_on_a_double_booked_cell_in_a_copied_schedule():
    harp = _small_network()
    copied = harp.schedule.copy()
    _double_book(copied)
    with pytest.raises(GateError):
        check_schedule(copied, harp.topology, "planted")
    check_schedule(harp.schedule, harp.topology, "original untouched")


def test_gate_trips_on_a_double_booked_cell_in_the_network():
    harp = _small_network()
    _double_book(harp.schedule)
    with pytest.raises(GateError, match="ScheduleConflictError"):
        check_network(harp, "planted")


def test_gate_trips_on_demand_ledger_drift():
    harp = _small_network()
    link = next(iter(harp.demand_ledger.scaled))
    harp.demand_ledger.scaled[link] += 1
    with pytest.raises(GateError, match="LedgerError"):
        check_network(harp, "planted")


def test_gate_trips_on_broken_packet_accounting():
    harp = _small_network()
    sim = TSCHSimulator(
        harp.topology, harp.schedule, harp.task_set, harp.config,
        rng=random.Random(1),
    )
    sim.run_slots(3 * harp.config.num_slots)
    check_engine(sim, "clean")
    sim.metrics.dropped += 1
    with pytest.raises(GateError, match="conservation"):
        check_engine(sim, "planted")


def test_check_same_trips_on_differing_digests():
    assert check_same("same", ["a", "a"]) == "a"
    with pytest.raises(GateError):
        check_same("differ", ["a", "b"])


# ----------------------------------------------------------------------
# workloads repeat exactly for one seed
# ----------------------------------------------------------------------


SMALL = [
    (Bootstrap(devices=300, depth=5), 2),
    (Churn(devices=200, depth=5), 16),
    (Telemetry(devices=400, depth=5), 12),
]


@pytest.mark.parametrize("workload,units", SMALL, ids=lambda w: str(w))
def test_workload_repeats_exactly_for_one_seed(workload, units):
    outputs = []
    for seed in (5, 5, 6):
        state, setup_times = workload.prepare(seed, units, repeats=1)
        result = workload.run(state, seed, units, 0.0)
        assert result.fixed_attempted == units
        assert result.fixed_failed == 0
        assert setup_times[0] > 0
        outputs.append((result.digest, result.sim))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] != outputs[2][0]


def test_floor_repeats_exactly_and_counts_heal_failures():
    """The known healing defect (a transaction that does not quiesce, or
    a conflict after an invalidated heal) shows on seed 1 of the real
    floor: its failures are counted, and the completed episodes still
    report."""
    floor = Floor()
    outputs = []
    for _ in range(2):
        state, _ = floor.prepare(1, 2)
        result = floor.run(state, 1, 2, 0.0)
        outputs.append((result.digest, result.sim, result.fixed_failed))
    assert outputs[0] == outputs[1]
    digest, sim, failed = outputs[0]
    assert failed >= 1
    assert sim["episodes_completed"] >= 1
    assert 0 < sim["delivery_ratio"] < 1


def test_churn_op_list_is_valid_in_order():
    topology = layered_random_tree(150, 5, random.Random(2))
    ops = generate_ops(topology, random.Random(9), 400)
    assert ops == generate_ops(topology, random.Random(9), 400)
    kinds = {kind for kind, *_ in ops}
    assert kinds == {"rate_change", "attach", "detach", "reparent"}
    rates = set()
    for kind, node, parent, rate in ops:
        if kind == "attach":
            topology = topology.with_attached(node, parent)
        elif kind == "detach":
            assert topology.is_leaf(node)
            topology = topology.with_detached(node)
        elif kind == "reparent":
            topology = topology.with_reparented(node, parent)
        else:
            assert node in topology.device_nodes
            rates.add(rate)
    assert rates == {0.5, 1.0, 1.5, 2.0}


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------


def test_traced_pass_matches_untraced_and_nests_spans():
    churn = Churn(devices=200, depth=5)
    state, _ = churn.prepare(4, 16, repeats=1)
    plain = churn.run(state, 4, 16, 0.0)
    state, _ = churn.prepare(4, 16, repeats=1)
    tracer = Tracer()
    traced = churn.run(state, 4, 16, 0.0, tracer)
    assert plain.digest == traced.digest
    assert plain.sim == traced.sim
    assert tracer.calls["adjustment"] > 0
    assert tracer.calls["certify.op"] > 0
    ids = {span[0]: span for span in tracer.spans}
    for span_id, parent_id, name, start, end in tracer.spans:
        assert start <= end
        if parent_id >= 0:
            parent = ids[parent_id]
            assert parent[3] <= start and end <= parent[4]
        else:
            assert name.startswith("dynamics.")
    for name, total in tracer.total_s.items():
        assert 0 <= tracer.self_s[name] <= total + 1e-9


def test_instrument_restores_every_binding():
    import repro.core.link_sched as link_sched
    import repro.core.manager as manager

    with instrument(Tracer()):
        assert manager.build_schedule is not original_build
        assert link_sched.build_schedule is not original_build
    assert manager.build_schedule is original_build
    assert link_sched.build_schedule is original_build
    assert not hasattr(HarpNetwork.validate, "__wrapped__")


def test_per_layer_metrics_cover_the_manifest():
    bootstrap = Bootstrap(devices=300, depth=5)
    state, _ = bootstrap.prepare(2, 2, repeats=1)
    plain = bootstrap.run(state, 2, 2, 0.0)
    tracer = Tracer()
    traced = bootstrap.run(state, 2, 2, 0.0, tracer)
    metrics = run.per_layer(tracer, traced, plain)
    assert list(metrics) == [m["name"] for m in manifest.PER_LAYER]
    assert metrics["allocation.s"][0] > 0
    assert metrics["engine.run_slots_calls"][0] == 0


# ----------------------------------------------------------------------
# helpers and the contract
# ----------------------------------------------------------------------


def test_recovery_count_agrees_with_the_program():
    floor = Floor()
    episode = floor.episode(2, 0)
    episode.live.run_slotframes(floor.warmup_slotframes + 12)
    metrics = episode.live.sim.metrics
    end = episode.live.sim.current_slot
    baseline = metrics.delivery_ratio_between(
        episode.start_slot, episode.crashes[0][1]
    )
    for _, slot in episode.crashes:
        assert recovery_slots(metrics, slot, baseline, end) == (
            metrics.time_to_recover(slot, baseline, end_slot=end)
        )


def test_percentile_interpolates():
    assert percentile([], 50) == 0.0
    assert percentile([3.0], 90) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile(list(range(11)), 90) == pytest.approx(9.0)
    # A chunk of 8 slots outweighs two chunks of one slot each.
    assert percentile([1.0, 2.0, 9.0], 50, [1.0, 1.0, 8.0]) == 9.0
    assert percentile([1.0, 2.0, 9.0], 10, [1.0, 1.0, 8.0]) == 1.0


def test_pace_scales_by_the_reference_loop():
    pace = Pace()
    pace.sample()
    assert 0.1 < pace.scale() < 10.0
    assert pace.scales


def test_manifest_matches_committed_files():
    assert manifest.main(["--check"]) == 0
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bootstrap",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

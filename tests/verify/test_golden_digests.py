"""Golden digests: the manager and engine outputs, pinned byte-for-byte.

Each entry of ``golden_digests.json`` is the ``network_digest`` /
``metrics_digest`` (:mod:`repro.workload.drivers`) of one deterministic
run:

* a conformance fuzz seed — allocate the generated scenario, apply its
  dynamics script through :class:`~repro.core.dynamics.TopologyManager`,
  then run the engine for three slotframes;
* a workload preset — :func:`~repro.workload.drivers.drive_network`
  over the preset's event stream with a three-slotframe engine run;
* an engine scenario — a longer :class:`TSCHSimulator` run through one
  regime of the data plane (lossy radio, TTL expiry, queue overflow,
  a fault plan, energy and trace recording, mid-run mutation,
  re-scheduling and re-parenting, queue queries, progress documents,
  checkpoint resume).

This corpus is the certificate for the single production path of each
layer (serial interface generation, the incremental demand ledger, the
event-skipping object engine): any change to what those layers compute
shows up as a digest mismatch.  Regenerate the file only when a
behaviour change is intended::

    PYTHONPATH=src python tests/verify/test_golden_digests.py --regen
"""

import json
import random
import sys
from pathlib import Path

import pytest

from repro.core.allocation import InsufficientResourcesError
from repro.core.dynamics import TopologyManager
from repro.core.manager import HarpNetwork
from repro.net.radio import UniformPDR
from repro.net.serialization import dump_progress, restore_progress
from repro.net.sim.energy import EnergyTracker
from repro.net.sim.engine import TSCHSimulator
from repro.net.sim.faults import FaultPlan, LinkPdrCollapse, NodeCrash
from repro.net.sim.trace import TraceRecorder
from repro.net.slotframe import SlotframeConfig
from repro.net.tasks import Task, TaskSet, e2e_task_per_node
from repro.net.topology import Direction, TreeTopology, regular_tree
from repro.verify.generators import generate_scenario
from repro.workload import drive_network, preset_spec
from repro.workload.drivers import (
    _sha,
    metrics_digest,
    network_digest,
    network_for_spec,
)

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

FUZZ_SEEDS = tuple(range(40))
PRESETS = ("steady", "churn", "mixed")
SIM_FRAMES = 3


def fuzz_digests(seed):
    """Bootstrap, dynamics script, then a short engine run."""
    scenario = generate_scenario(seed)
    harp = HarpNetwork(
        scenario.topology(),
        scenario.task_set(),
        scenario.config(),
        case1_slack=scenario.case1_slack,
        distribute_slack=scenario.distribute_slack,
    )
    try:
        harp.allocate()
    except InsufficientResourcesError:
        return {"outcome": "infeasible"}
    entry = {"bootstrap": network_digest(harp)}
    manager = TopologyManager(harp)
    outcomes = []
    for op in scenario.ops:
        try:
            outcome = manager.apply_event(
                op.kind, op.node, parent=op.parent, rate=op.rate
            )
        except InsufficientResourcesError:
            outcomes.append("infeasible")
            break
        outcomes.append("ok" if outcome.success else "rejected")
    entry["ops"] = outcomes
    entry["dynamics"] = network_digest(harp)
    sim = TSCHSimulator(
        harp.topology,
        harp.schedule,
        harp.task_set,
        harp.config,
        rng=random.Random(seed),
    )
    sim.run_slotframes(SIM_FRAMES)
    entry["metrics"] = metrics_digest(sim)
    entry["outcome"] = "ok"
    return entry


def preset_digests(preset):
    spec = preset_spec(preset, seed=5, frames=40.0, devices=16, depth=3)
    report = drive_network(
        network_for_spec(spec), spec.events(), sim_frames=SIM_FRAMES
    )
    return report.to_dict()


def _engine(fanout=3, rate=0.7, seed=7, tasks=None, **kwargs):
    topology = regular_tree(depth=3, fanout=fanout)
    config = SlotframeConfig(num_slots=101, num_channels=16)
    task_set = tasks or e2e_task_per_node(topology, rate=rate)
    network = HarpNetwork(topology, task_set, config)
    network.allocate()
    return TSCHSimulator(
        topology,
        network.schedule,
        task_set,
        config,
        rng=random.Random(seed),
        **kwargs,
    )


# Each engine scenario returns the simulator after its run plus any
# extra observable (energy ledger, trace) to pin beside the metrics.


def _run_basic():
    sim = _engine()
    sim.run_slotframes(40)
    return sim, None


def _run_lossy():
    sim = _engine(loss_model=UniformPDR(0.8))
    sim.run_slotframes(40)
    return sim, None


def _run_ttl():
    sim = _engine(rate=1.5, fanout=2, max_packet_age_slots=150)
    sim.run_slotframes(40)
    return sim, None


def _run_queue_capacity():
    sim = _engine(
        rate=1.9, fanout=2, queue_capacity=2, loss_model=UniformPDR(0.6)
    )
    sim.run_slotframes(40)
    return sim, None


def _run_fault_plan():
    plan = FaultPlan(
        crashes=(
            NodeCrash(node=2, at_slot=707, recover_slot=1513),
            NodeCrash(node=5, at_slot=1201),
        ),
        link_collapses=(
            LinkPdrCollapse(child=3, start_slot=900, end_slot=1600, pdr=0.3),
        ),
    )
    sim = _engine(fanout=2, fault_plan=plan, max_packet_age_slots=400)
    sim.run_slotframes(40)
    return sim, None


def _run_energy():
    sim = _engine()
    sim.energy = EnergyTracker(sim.config)
    sim.run_slotframes(20)
    return sim, {
        str(node): [e.tx_slots, e.rx_slots, e.idle_slots, e.sleep_slots]
        for node, e in sorted(sim.energy.per_node.items())
    }


def _run_trace():
    sim = _engine(loss_model=UniformPDR(0.7))
    sim.trace = TraceRecorder()
    sim.run_slotframes(15)
    return sim, [repr(event) for event in sim.trace]


def _run_non_echo():
    topology = regular_tree(depth=3, fanout=2)
    tasks = TaskSet(
        tasks=[
            Task(task_id=n, source=n, rate=0.9, echo=(n % 2 == 0))
            for n in sorted(topology.device_nodes)
        ]
    )
    sim = _engine(fanout=2, tasks=tasks)
    sim.run_slotframes(30)
    return sim, None


def _run_runtime_mutation():
    sim = _engine()
    sim.run_slotframes(8)
    sim.set_task_rate(3, 1.5)
    sim.run_slotframes(8)
    sim.add_task(Task(task_id=901, source=5, rate=1.0))
    sim.run_slotframes(8)
    sim.remove_task(901)
    sim.remove_task(4)
    sim.run_slotframes(4)
    sim.disable_traffic()
    sim.run_slots(303)
    sim.enable_traffic()
    sim.run_slotframes(8)
    return sim, None


def _run_retopology():
    sim = _engine(rate=1.1, fanout=2)
    sim.run_slotframes(10)
    parents = dict(sim.topology.parent_map)
    parents[6] = 2
    topology = TreeTopology(
        parent_map=parents, gateway_id=sim.topology.gateway_id
    )
    sim.set_topology(topology)
    harp = HarpNetwork(
        topology,
        TaskSet(tasks=[s.task for _, s in sorted(sim._tasks.items())]),
        sim.config,
    )
    harp.allocate()
    sim.set_schedule(harp.schedule)
    sim.run_slotframes(20)
    return sim, None


def _run_queue_queries():
    sim = _engine(rate=1.5, fanout=2)
    sim.run_slotframes(7)
    nodes = sorted(sim.topology.nodes)
    return sim, {
        "queued_at": [
            sim.queued_at(nodes, direction, echo_only=echo_only)
            for direction in (Direction.UP, Direction.DOWN)
            for echo_only in (False, True)
        ],
        "queued_into": sim.queued_into(nodes[len(nodes) // 2:]),
    }


def _run_progress_documents():
    """A mid-run progress document, then more traffic: writing the
    document must not perturb the run."""
    sim = _engine(rate=1.3, fanout=2, max_packet_age_slots=300)
    sim.run_slotframes(17)
    document = json.dumps(dump_progress(sim), sort_keys=True)
    sim.run_slotframes(13)
    return sim, document


def _run_resume():
    writer = _engine(rate=1.3, fanout=2, max_packet_age_slots=300)
    writer.run_slotframes(17)
    document = json.loads(json.dumps(dump_progress(writer)))
    sim = _engine(rate=1.3, fanout=2, max_packet_age_slots=300)
    restore_progress(sim, document)
    sim.run_slotframes(15)
    return sim, None


ENGINE_SCENARIOS = {
    "basic_traffic": _run_basic,
    "lossy_channel": _run_lossy,
    "ttl_expiry": _run_ttl,
    "queue_capacity": _run_queue_capacity,
    "fault_plan": _run_fault_plan,
    "energy_accounting": _run_energy,
    "trace": _run_trace,
    "non_echo_tasks": _run_non_echo,
    "runtime_mutation": _run_runtime_mutation,
    "reschedule_and_retopology": _run_retopology,
    "queue_queries": _run_queue_queries,
    "progress_documents": _run_progress_documents,
    "resume": _run_resume,
}


def engine_digests(name):
    sim, extra = ENGINE_SCENARIOS[name]()
    state = {
        "metrics": metrics_digest(sim),
        "rng": _sha(repr(sim.rng.getstate())),
        "conservation": sim.conservation_findings(),
    }
    if extra is not None:
        state["extra"] = _sha(extra)
    return state


def compute_corpus():
    return {
        "fuzz": {str(seed): fuzz_digests(seed) for seed in FUZZ_SEEDS},
        "presets": {preset: preset_digests(preset) for preset in PRESETS},
        "engine": {name: engine_digests(name) for name in ENGINE_SCENARIOS},
    }


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def test_corpus_covers_every_case(golden):
    assert sorted(golden["fuzz"], key=int) == [str(s) for s in FUZZ_SEEDS]
    assert sorted(golden["presets"]) == sorted(PRESETS)
    assert sorted(golden["engine"]) == sorted(ENGINE_SCENARIOS)
    # The corpus must exercise the dynamics path, not only bootstraps.
    ran = [e for e in golden["fuzz"].values() if e["outcome"] == "ok"]
    assert len(ran) >= len(FUZZ_SEEDS) // 2
    assert any(e["ops"] for e in ran)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_seed_digests(golden, seed):
    assert fuzz_digests(seed) == golden["fuzz"][str(seed)]


@pytest.mark.parametrize("preset", PRESETS)
def test_workload_preset_digests(golden, preset):
    assert preset_digests(preset) == golden["presets"][preset]


@pytest.mark.parametrize("name", sorted(ENGINE_SCENARIOS))
def test_engine_scenario_digests(golden, name):
    assert engine_digests(name) == golden["engine"][name]


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        sys.exit("usage: test_golden_digests.py --regen")
    GOLDEN_PATH.write_text(
        json.dumps(compute_corpus(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")

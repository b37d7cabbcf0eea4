"""Equivalence of the event-skipping engine vs the slot-by-slot
reference stepping (:func:`repro.verify.reference.run_slots_stepped`):
same seed, bit-identical observable state."""

import random
from dataclasses import fields


from repro.core.manager import HarpNetwork
from repro.net.radio import UniformPDR
from repro.net.sim.energy import EnergyTracker
from repro.net.sim.engine import TSCHSimulator
from repro.net.sim.faults import FaultPlan, LinkPdrCollapse, NodeCrash
from repro.net.slotframe import SlotframeConfig
from repro.net.tasks import e2e_task_per_node
from repro.net.topology import regular_tree
from repro.verify.reference import run_slotframes_stepped


def build_sim(
    rate=0.2,
    seed=7,
    fault_plan=None,
    max_age=None,
    energy=False,
    loss=None,
):
    topology = regular_tree(depth=3, fanout=2)
    config = SlotframeConfig(num_slots=101, num_channels=16)
    tasks = e2e_task_per_node(topology, rate=rate)
    network = HarpNetwork(topology, tasks, config)
    network.allocate()
    sim = TSCHSimulator(
        topology,
        network.schedule,
        tasks,
        config,
        loss_model=loss,
        rng=random.Random(seed),
        fault_plan=fault_plan,
        max_packet_age_slots=max_age,
    )
    if energy:
        sim.energy = EnergyTracker(config)
    return sim


def metrics_state(sim):
    """Every observable field of the collector, order-normalized only
    where the engine itself guarantees no ordering (dict key sets)."""
    out = {}
    for f in fields(sim.metrics):
        if f.name == "config":
            continue
        out[f.name] = getattr(sim.metrics, f.name)
    out["current_slot"] = sim.current_slot
    out["queued"] = sim.queued_packets()
    out["rng_state"] = sim.rng.getstate()
    return out


def energy_state(sim):
    return {
        node: (e.tx_slots, e.rx_slots, e.idle_slots, e.sleep_slots)
        for node, e in sim.energy.per_node.items()
    }


def assert_equivalent(fast, slow):
    assert metrics_state(fast) == metrics_state(slow)


def test_basic_traffic_identical():
    fast, slow = build_sim(), build_sim()
    fast.run_slotframes(50)
    run_slotframes_stepped(slow, 50)
    assert_equivalent(fast, slow)
    assert len(fast.metrics.deliveries) > 0


def test_lossy_channel_identical():
    """Loss sampling consumes the RNG only on attempts, so the stream
    stays aligned across skipped stretches."""
    fast = build_sim(loss=UniformPDR(0.8))
    slow = build_sim(loss=UniformPDR(0.8))
    fast.run_slotframes(40)
    run_slotframes_stepped(slow, 40)
    assert_equivalent(fast, slow)
    assert fast.metrics.loss_failures > 0


def test_ttl_expiry_identical():
    """Packet-lifetime enforcement must fire on the exact same slots."""
    fast = build_sim(rate=1.5, max_age=150)
    slow = build_sim(rate=1.5, max_age=150)
    fast.run_slotframes(40)
    run_slotframes_stepped(slow, 40)
    assert_equivalent(fast, slow)


def test_fault_plan_identical():
    """Crashes, recoveries and link collapses land slot-exactly on the
    fast path even when they fall inside otherwise-idle stretches."""
    plan = FaultPlan(
        crashes=(
            NodeCrash(node=2, at_slot=707, recover_slot=1513),
            NodeCrash(node=5, at_slot=1201),
        ),
        link_collapses=(
            LinkPdrCollapse(child=3, start_slot=900, end_slot=1600, pdr=0.3),
        ),
    )
    fast = build_sim(fault_plan=plan, max_age=400)
    slow = build_sim(fault_plan=plan, max_age=400)
    fast.run_slotframes(40)
    run_slotframes_stepped(slow, 40)
    assert_equivalent(fast, slow)
    assert fast.metrics.fault_drops > 0


def test_energy_accounting_identical():
    """Per-slot energy charging must match exactly: skipped slots are
    provably sleep-only and charged in bulk."""
    fast = build_sim(energy=True)
    slow = build_sim(energy=True)
    fast.run_slotframes(30)
    run_slotframes_stepped(slow, 30)
    assert_equivalent(fast, slow)
    assert energy_state(fast) == energy_state(slow)
    # Every node accounted for every slot.
    total = 30 * fast.config.num_slots
    for counts in energy_state(fast).values():
        assert sum(counts) == total


def test_runtime_mutation_identical():
    """Rate changes and traffic toggles mid-run keep both paths aligned."""
    fast, slow = build_sim(), build_sim()
    for sim, run in (
        (fast, lambda sim, n: sim.run_slotframes(n)),
        (slow, run_slotframes_stepped),
    ):
        run(sim, 10)
        sim.set_task_rate(3, 1.5)
        run(sim, 10)
        sim.disable_traffic()
        run(sim, 5)
        sim.enable_traffic()
        run(sim, 10)
    assert_equivalent(fast, slow)


def test_chunked_run_identical_to_single_call():
    """Slot-exactness: stepping in odd chunks (as the live layer's
    run_slots(1) does) equals one long run."""
    chunked, whole = build_sim(), build_sim()
    remaining = 13 * chunked.config.num_slots
    step = 1
    while remaining > 0:
        n = min(step, remaining)
        chunked.run_slots(n)
        remaining -= n
        step = (step * 7) % 23 + 1
    whole.run_slots(13 * whole.config.num_slots)
    assert_equivalent(chunked, whole)


def test_idle_network_skips_but_accounts():
    """A simulator with no traffic at all must still advance time and
    sleep-charge every node, without stepping slot by slot."""
    sim = build_sim(energy=True)
    sim.disable_traffic()
    sim.run_slotframes(100)
    assert sim.current_slot == 100 * sim.config.num_slots
    for counts in energy_state(sim).values():
        assert sum(counts) == 100 * sim.config.num_slots


def test_fast_path_flag_default_on():
    """``run_slots`` always takes the event-skipping path: a lightly
    loaded run processes far fewer slots than it advances."""
    sim = build_sim()
    stepped = 0
    step = sim._step

    def counting_step():
        nonlocal stepped
        stepped += 1
        step()

    sim._step = counting_step
    sim.run_slotframes(20)
    assert sim.current_slot == 20 * sim.config.num_slots
    assert 0 < stepped < sim.current_slot // 2

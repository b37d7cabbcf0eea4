"""What the benchmark measures and why: the one source of truth.

``python3 perfbench/manifest.py`` writes ``BENCHMARK.json`` (the contract
the benchmark runner reads: workloads, end-to-end metrics with their
regression bounds, per-layer metrics) and ``perfbench/rationale.json``
(why each workload exists, which layers it loads, how each metric is
defined on it, and which end-to-end metric each per-layer metric should
move).  ``--check`` exits non-zero when either file is out of date.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
#: Host seconds one run measures; the fixed work of every workload is
#: sized to about this long on the calibration box.
RUN_SECONDS = 20

WORKLOADS = [
    {
        "name": "bootstrap",
        "why": (
            "Static phase repeated on one 5000-device depth-8 tree: loads "
            "demand, interface_gen, packing, allocation, link_sched and "
            "certify; dynamics, engine and live idle."
        ),
        "layers": [
            "demand", "interface_gen", "packing", "allocation",
            "link_sched", "certify",
        ],
        "input": (
            "layered_random_tree(5000, 8, Random(seed)), one e2e task per "
            "device at rate 1, 40000-slot frame, 16 channels, "
            "case1_slack=1, distribute_slack=True"
        ),
        "loop": "closed loop: one allocate+validate at a time, fresh "
                "HarpNetwork and cold composition cache each",
        "op": "one HarpNetwork construction + allocate() + validate()",
    },
    {
        "name": "churn",
        "why": (
            "Seeded rate_change/attach/detach/reparent ops on an allocated "
            "2000-device tree: per-op dynamics cost, subtree interface_gen "
            "on a warm cache, adjustment and certify."
        ),
        "layers": [
            "dynamics", "demand", "interface_gen", "packing", "adjustment",
            "link_sched", "certify", "topology",
        ],
        "input": (
            "fixed plant layered_random_tree(2000, 8, Random(7)), rate-1 "
            "e2e tasks, case1_slack=1, distribute_slack=True; op list from "
            "Random(seed*1000003+1), generated before timing, kinds in "
            "shuffled blocks of one each, rates from {0.5, 1, 1.5, 2}"
        ),
        "loop": "closed loop: one TopologyManager.apply_event at a time",
        "op": "one dynamics op",
    },
    {
        "name": "floor",
        "why": (
            "Live 40-device floor bootstrapped over the air, rate-1 e2e "
            "traffic, four staggered router crashes it self-heals: agents, "
            "management transport, engine on a small busy net."
        ),
        "layers": ["live", "agents", "engine", "packing", "topology"],
        "input": (
            "fixed floor layered_random_tree(40, 4, Random(7)), 400-slot "
            "frame with 84 management slots, packet lifetime 4000 slots; "
            "per episode i the radio stream and the four crashed routers "
            "(depth >= 2, two slotframes apart after a five-slotframe "
            "warm-up) come from Random(seed*1000003+i); 25 slotframes "
            "requested per episode"
        ),
        "loop": "closed loop: run_slotframes(1) until the episode ends; "
                "an episode that raises counts as failed; at least 10 "
                "episodes per run (about 40 s at any run length up to 40 s)",
        "op": "one simulated slot (host time per run_slotframes(1) chunk "
              "divided by the slots it advanced)",
    },
    {
        "name": "telemetry",
        "why": (
            "TSCHSimulator alone on a 10000-device tree with rate-0.05 "
            "traffic: the engine's large-N, skip-dominated regime that no "
            "other workload reaches."
        ),
        "layers": ["engine"],
        "input": (
            "layered_random_tree(10000, 8, Random(seed)), e2e tasks at "
            "rate 0.05, 80000-slot frame, allocated by HARP in set-up"
        ),
        "loop": "closed loop: run_slots chunks of one traffic period (20 "
                "slotframes; every task starts at slot 0, so the network "
                "bursts once a period and drains)",
        "op": "one simulated slot (host time per chunk / slots in it)",
    },
]

END_TO_END = [
    {
        "name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
        "definition": {
            "bootstrap": "median of 5 input builds (tree, tasks, config)",
            "churn": "median of 3 builds of inputs + allocate + op list",
            "floor": "median over episodes of LiveHarpNetwork + "
                     "bootstrap() over the air",
            "telemetry": "median of 3 builds of inputs + allocate + "
                         "TSCHSimulator",
        },
    },
    {
        "name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25,
        "definition": "median host ms per op (see each workload's op), "
                      "pace-scaled; on floor and telemetry each chunk "
                      "counts once per slot it advanced",
    },
    {
        "name": "op_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25,
        "definition": "90th percentile of the same; the report states "
                      "the sample count and how many lie beyond it",
    },
    {
        "name": "ops_per_s", "unit": "1/s", "better": "higher",
        "bound": 0.25,
        "definition": "ops (slots on floor and telemetry) per pace-scaled "
                      "host second of the timed regions",
    },
    {
        "name": "delivery_ratio", "unit": "ratio", "better": "higher",
        "bound": 0.2,
        "definition": {
            "bootstrap": "probe: delivered/created, first slotframe",
            "churn": "probe of the network after the fixed ops",
            "floor": "completed episodes, packets created from the end of "
                     "bootstrap to one lifetime before the end",
            "telemetry": "packets created at least one packet lifetime "
                         "before the end of the fixed slots (all resolved)",
        },
    },
    {
        "name": "latency_p50_slots", "unit": "slots", "better": "lower",
        "bound": 0.1,
        "definition": "median end-to-end (uplink and echo) latency in "
                      "slots: probe of the final schedule on bootstrap and "
                      "churn; live traffic delivered before the first "
                      "crash on floor (the healed networks' probe is "
                      "printed beside it); own run on telemetry",
    },
    {
        "name": "latency_p95_slots", "unit": "slots", "better": "lower",
        "bound": 0.2,
        "definition": "95th percentile of the same latencies",
    },
]

#: The other end-to-end names every run prints (with units) beside the
#: bounded metrics above, and where each comes from.
REPORTED = {
    "fail_frac": "failed / attempted over the fixed work: allocations "
                 "(bootstrap), ops whose report.success is false or that "
                 "raise (churn), episodes that raise (floor), chunks "
                 "(telemetry)",
    "static_s": "op_p50_ms / 1000 on bootstrap",
    "op_messages_mean": "report.total_messages per op (churn); "
                        "static_report.total_messages (bootstrap); "
                        "LiveStats.messages_sent per episode (floor)",
    "live_slots_per_s": "ops_per_s on floor",
    "engine_slots_per_s": "ops_per_s on telemetry",
    "latency_p99_slots": "99th percentile of the latencies behind "
                         "latency_p50_slots; not bounded because on churn "
                         "it jumps by a slotframe when more than 1% of "
                         "flows are left a slotframe late, which the op "
                         "list decides (IQR/median 0.12-0.19 over ten "
                         "seeds)",
    "recovery_slots_p50": "floor: slots from each crash until "
                          "MetricsCollector.time_to_recover declares "
                          "recovery, median over crashes of completed "
                          "episodes",
}


def _layer(name, unit, better, moves):
    return {"name": name, "unit": unit, "better": better, "moves": moves}


PER_LAYER = [
    _layer("demand.build_s", "s", "lower", "static_s on bootstrap"),
    _layer("demand.apply_s", "s", "lower", "op_p50_ms on churn"),
    _layer("interface_gen.full_s", "s", "lower", "static_s on bootstrap"),
    _layer("interface_gen.subtree_s", "s", "lower", "op_p90_ms on churn"),
    _layer("interface_gen.cache_hit_ratio", "ratio", "higher",
           "static_s on bootstrap, op_p90_ms on churn"),
    _layer("packing.compose_calls", "count", "lower",
           "static_s on bootstrap"),
    _layer("packing.compose_s", "s", "lower", "static_s on bootstrap"),
    _layer("allocation.s", "s", "lower", "static_s on bootstrap"),
    _layer("link_sched.build_s", "s", "lower", "static_s on bootstrap"),
    _layer("link_sched.node_calls", "count", "lower", "op_p50_ms on churn"),
    _layer("link_sched.node_s", "s", "lower", "op_p50_ms on churn"),
    _layer("link_sched.priority_s", "s", "lower", "op_p50_ms on churn"),
    _layer("certify.isolation_s", "s", "lower", "static_s on bootstrap"),
    _layer("certify.collision_s", "s", "lower", "static_s on bootstrap"),
    _layer("certify.op_s", "s", "lower",
           "op_p50_ms on churn (unchanged on bootstrap)"),
    _layer("certify.calls", "count", "lower", "op_p50_ms on churn"),
    _layer("topology.rebuild_s", "s", "lower", "op_p50_ms on churn"),
    _layer("adjustment.calls", "count", "lower",
           "op_p90_ms and op_messages_mean on churn"),
    _layer("adjustment.s", "s", "lower",
           "op_p90_ms and op_messages_mean on churn"),
    _layer("adjustment.moved_partitions", "count", "lower",
           "op_p90_ms and op_messages_mean on churn"),
    _layer("adjustment.failed", "count", "lower",
           "op_p90_ms and op_messages_mean on churn"),
    _layer("dynamics.rate_change_p50_ms", "ms", "lower",
           "op_p90_ms and fail_frac on churn"),
    _layer("dynamics.attach_p50_ms", "ms", "lower",
           "op_p90_ms and fail_frac on churn"),
    _layer("dynamics.detach_p50_ms", "ms", "lower",
           "op_p90_ms and fail_frac on churn"),
    _layer("dynamics.reparent_p50_ms", "ms", "lower",
           "op_p90_ms and fail_frac on churn"),
    _layer("dynamics.rebootstraps", "count", "lower",
           "op_p90_ms and fail_frac on churn"),
    _layer("dynamics.rebootstrap_s", "s", "lower",
           "op_p90_ms and fail_frac on churn"),
    _layer("engine.run_slots_s", "s", "lower",
           "live_slots_per_s on floor, engine_slots_per_s on telemetry"),
    _layer("engine.run_slots_calls", "count", "lower",
           "live_slots_per_s on floor, engine_slots_per_s on telemetry"),
    _layer("engine.set_schedule_calls", "count", "lower",
           "live_slots_per_s on floor"),
    _layer("agents.handle_calls", "count", "lower",
           "live_slots_per_s on floor"),
    _layer("agents.handle_s", "s", "lower", "live_slots_per_s on floor"),
    _layer("live.messages_sent", "count", "lower",
           "recovery_slots_p50 and delivery_ratio on floor"),
    _layer("live.messages_lost", "count", "lower",
           "recovery_slots_p50 and delivery_ratio on floor"),
    _layer("live.dead_lettered", "count", "lower",
           "recovery_slots_p50 and delivery_ratio on floor"),
    _layer("live.heals_completed", "count", "higher",
           "recovery_slots_p50 and delivery_ratio on floor"),
    _layer("live.rebootstraps", "count", "lower",
           "recovery_slots_p50 and delivery_ratio on floor"),
]

#: Layers whose self time the traced run reports, named after the span
#: prefixes (``manager`` is the bootstrap op's own glue, ``dynamics`` the
#: churn op's, ``live`` the floor slotframe's).
SELF_TIME_LAYERS = [
    "manager", "dynamics", "live", "demand", "interface_gen", "packing",
    "allocation", "link_sched", "certify", "topology", "adjustment",
    "engine", "agents",
]

PER_LAYER += [
    _layer(f"{layer}.self_s", "s", "lower",
           "self time: the layer's spans minus their child spans")
    for layer in SELF_TIME_LAYERS
]

PER_LAYER += [
    _layer("trace.overhead_ms", "ms", "lower",
           "traced op_p50_ms minus untraced op_p50_ms, same fixed work"),
    _layer("trace.overhead_frac", "ratio", "lower",
           "traced op_p50_ms / untraced op_p50_ms - 1"),
    _layer("trace.spans", "count", "lower", "spans recorded"),
]

#: Layer -> end-to-end metric -> workload predictions that should show
#: *no* change.
NO_MOVES = [
    "static-phase layers (demand, interface_gen, packing, allocation, "
    "link_sched, certify) leave floor and telemetry unchanged apart from "
    "setup_s",
    "engine layers leave bootstrap and churn unchanged",
]

CALIBRATION = {
    "box": "2-core x86_64 container, python 3.11.7, sha 65010d7",
    "fixed_work": "unit_seconds in workloads.py size each workload's "
                  "fixed work to RUN_SECONDS on this box",
    "pace": "host times are scaled by Pace: NOMINAL_S / the current "
            "time of a fixed pure-Python loop sampled between ops, "
            "because this shared box's speed swings by a quarter within "
            "seconds; raw host times are printed beside",
    "simulated": "digests, messages, delivery and latency come from the "
                 "fixed work only and repeat exactly for one seed",
}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w["name"], "why": w["why"]} for w in WORKLOADS
        ],
        "end_to_end": [
            {key: m[key] for key in ("name", "unit", "better", "bound")}
            for m in END_TO_END
        ],
        "per_layer": [
            {key: m[key] for key in ("name", "unit", "better")}
            for m in PER_LAYER
        ],
    }


def rationale_json() -> dict:
    return {
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "reported": REPORTED,
        "per_layer": PER_LAYER,
        "no_moves": NO_MOVES,
        "calibration": CALIBRATION,
    }


def _render(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def main(argv) -> int:
    here = Path(__file__).resolve().parent
    targets = {
        here.parent / "BENCHMARK.json": _render(benchmark_json()),
        here / "rationale.json": _render(rationale_json()),
    }
    if "--check" in argv:
        stale = [
            str(path) for path, text in targets.items()
            if not path.is_file() or path.read_text() != text
        ]
        for path in stale:
            print(f"out of date: {path}", file=sys.stderr)
        return 1 if stale else 0
    for path, text in targets.items():
        path.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""HARP benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs half the fixed work untraced and the same
half again with a span around every layer boundary, and reports the
per-layer metrics, each layer's self time and the tracing overhead
(spans are written to ``.perfbench/trace-<workload>-<seed>.jsonl``).
Human-readable lines come first; the last line of standard output is
the JSON result.  A failed correctness check prints ``"correct":
false`` and exits 1.  Metric definitions and the reasons behind each
workload live in ``perfbench/manifest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

Metrics = Dict[str, Tuple[float, str]]


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(args) -> Dict[str, object]:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return {
        "sha": _git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": cpus,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(result, setup_times: List[float]) -> Metrics:
    from workloads import percentile

    samples, weights = result.samples_ms, result.weights
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_ms": (percentile(samples, 50, weights), "ms"),
        "op_p90_ms": (percentile(samples, 90, weights), "ms"),
        "ops_per_s": (result.work / result.busy_s, "1/s"),
        "delivery_ratio": (result.sim["delivery_ratio"], "ratio"),
        "latency_p50_slots": (result.sim["latency_p50_slots"], "slots"),
        "latency_p95_slots": (result.sim["latency_p95_slots"], "slots"),
    }


def reported(name: str, result, e2e: Metrics) -> List[str]:
    """Every end-to-end name the benchmark reports, with its unit or the
    reason it does not apply to this workload, plus sample counts."""
    from workloads import percentile

    n = len(result.samples_ms)
    beyond = sum(1 for v in result.samples_ms if v > e2e["op_p90_ms"][0])
    tail = (
        f"p{100 * (1 - 10 / n):.1f}" if n >= 20
        else "none (fewer than 20 samples)"
    )
    sim = result.sim
    fixed = max(1, result.fixed_attempted)
    rows = {name_: f"{value!r} {unit}" for name_, (value, unit) in e2e.items()}
    rows["fail_frac"] = (
        f"{result.fixed_failed / fixed!r} ratio ({result.fixed_failed} of "
        f"{result.fixed_attempted} in the fixed work; {result.failed} of "
        f"{result.attempted} in the run)"
    )
    rows["static_s"] = (
        f"{e2e['op_p50_ms'][0] / 1000!r} s" if name == "bootstrap"
        else "n/a (bootstrap only)"
    )
    rows["op_messages_mean"] = (
        f"{sim['messages_per_op']!r} count" if "messages_per_op" in sim
        else "n/a (no management plane)"
    )
    rows["live_slots_per_s"] = (
        f"{e2e['ops_per_s'][0]!r} 1/s" if name == "floor"
        else "n/a (floor only)"
    )
    rows["engine_slots_per_s"] = (
        f"{e2e['ops_per_s'][0]!r} 1/s" if name == "telemetry"
        else "n/a (telemetry only)"
    )
    rows["latency_p99_slots"] = f"{sim['latency_p99_slots']!r} slots"
    rows["recovery_slots_p50"] = (
        f"{sim['recovery_slots_p50']!r} slots ({int(sim['recoveries'])} "
        f"recovered crashes, {int(sim['unrecovered'])} never recovered, "
        f"{int(sim['episodes_completed'])} episodes completed)"
        if name == "floor" else "n/a (floor only)"
    )
    lines = [f"{key:<20} {text}" for key, text in rows.items()]
    lines.append(
        f"op samples           {n}; {beyond} beyond op_p90_ms; highest "
        f"percentile with >= 10 samples beyond it: {tail}"
    )
    lines.append(
        f"latency samples      {int(sim['latency_samples'])} packets"
    )
    lines.append(
        f"raw host time        op_p50_ms "
        f"{percentile(result.raw_ms, 50, result.weights)!r}, ops_per_s "
        f"{result.work / result.raw_busy_s!r}; pace scale median "
        f"{statistics.median(result.pace.scales)!r}"
    )
    if name == "floor":
        lines.append(
            f"healed latency       p50 {sim['healed_latency_p50_slots']!r}"
            f" / p99 {sim['healed_latency_p99_slots']!r} slots (probe of "
            f"the healed networks)"
        )
    if name == "churn":
        lines.append(f"rebootstraps         {int(sim['rebootstraps'])}")
    return lines


def per_layer(tracer, traced, plain) -> Metrics:
    from manifest import PER_LAYER, SELF_TIME_LAYERS
    from workloads import percentile

    def busy(name):
        return tracer.total_s.get(name, 0.0)

    def calls(name):
        return float(tracer.calls.get(name, 0))

    lookups = traced.counters.get("cache_hits", 0) + traced.counters.get(
        "cache_misses", 0
    )
    values: Dict[str, float] = {
        "demand.build_s": busy("demand.build"),
        "demand.apply_s": busy("demand.apply"),
        "interface_gen.full_s": busy("interface_gen.full"),
        "interface_gen.subtree_s": busy("interface_gen.subtree"),
        "interface_gen.cache_hit_ratio": (
            traced.counters.get("cache_hits", 0) / lookups if lookups else 0.0
        ),
        "packing.compose_calls": calls("packing.compose"),
        "packing.compose_s": busy("packing.compose"),
        "allocation.s": busy("allocation"),
        "link_sched.build_s": busy("link_sched.build"),
        "link_sched.node_calls": calls("link_sched.node"),
        "link_sched.node_s": busy("link_sched.node"),
        "link_sched.priority_s": busy("link_sched.priority"),
        "certify.isolation_s": busy("certify.isolation"),
        "certify.collision_s": busy("certify.collision"),
        "certify.op_s": busy("certify.op"),
        "certify.calls": calls("certify.op"),
        "topology.rebuild_s": busy("topology.rebuild"),
        "adjustment.calls": calls("adjustment"),
        "adjustment.s": busy("adjustment"),
        "adjustment.moved_partitions": tracer.counts.get(
            "adjustment.moved_partitions", 0.0
        ),
        "adjustment.failed": tracer.counts.get("adjustment.failed", 0.0),
        "dynamics.rebootstraps": calls("dynamics.rebootstrap"),
        "dynamics.rebootstrap_s": busy("dynamics.rebootstrap"),
        "engine.run_slots_s": busy("engine.run_slots"),
        "engine.run_slots_calls": calls("engine.run_slots"),
        "engine.set_schedule_calls": calls("engine.set_schedule"),
        "agents.handle_calls": calls("agents.handle"),
        "agents.handle_s": busy("agents.handle"),
    }
    for kind in ("rate_change", "attach", "detach", "reparent"):
        values[f"dynamics.{kind}_p50_ms"] = percentile(
            traced.by_kind_ms.get(kind, []), 50
        )
    for key in (
        "messages_sent", "messages_lost", "dead_lettered",
        "heals_completed", "rebootstraps",
    ):
        values[f"live.{key}"] = float(traced.counters.get(key, 0))
    for layer in SELF_TIME_LAYERS:
        values[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    traced_p50 = percentile(traced.samples_ms, 50, traced.weights)
    plain_p50 = percentile(plain.samples_ms, 50, plain.weights)
    values["trace.overhead_ms"] = traced_p50 - plain_p50
    values["trace.overhead_frac"] = (
        traced_p50 / plain_p50 - 1.0 if plain_p50 else 0.0
    )
    values["trace.spans"] = float(len(tracer.spans) + tracer.dropped)
    units = {m["name"]: m["unit"] for m in PER_LAYER}
    if set(values) != set(units):
        raise RuntimeError(
            f"per-layer metrics out of step with the manifest: "
            f"{sorted(set(values) ^ set(units))}"
        )
    return {name: (values[name], units[name]) for name in units}


def _emit(correct: bool, attempted: int, failed: int, metrics: Metrics):
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def _print_metrics(metrics: Metrics) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value!r} {unit}")


def measure(args) -> int:
    from gate import GateError, check_same
    from tracing import Tracer
    from workloads import WORKLOADS

    info = provenance(args)
    print("perfbench " + " ".join(f"{k}={v}" for k, v in info.items()))
    workload = WORKLOADS[args.workload]()
    units = workload.units(args.seconds)
    try:
        if not args.trace:
            state, setup_times = workload.prepare(args.seed, units)
            result = workload.run(state, args.seed, units, args.seconds)
            metrics = end_to_end(result, setup_times)
            for row in reported(args.workload, result, metrics):
                print(row)
        else:
            half = max(2, units // 2)
            state, _ = workload.prepare(args.seed, half, repeats=1)
            plain = workload.run(state, args.seed, half, 0.0)
            state, _ = workload.prepare(args.seed, half, repeats=1)
            tracer = Tracer()
            result = workload.run(state, args.seed, half, 0.0, tracer)
            check_same(
                "traced and untraced passes", [plain.digest, result.digest]
            )
            metrics = per_layer(tracer, result, plain)
            _print_metrics(metrics)
            out = ROOT / ".perfbench"
            out.mkdir(exist_ok=True)
            path = out / f"trace-{args.workload}-{args.seed}.jsonl"
            tracer.write_jsonl(str(path), info)
            print(f"spans written to {path.relative_to(ROOT)}")
    except GateError as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        _emit(False, 1, 1, {})
        return 1
    print(f"digest {result.digest}")
    _emit(True, result.attempted, result.failed, metrics)
    return 0


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: program source not found under {SOURCE}",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SOURCE), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    return measure(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

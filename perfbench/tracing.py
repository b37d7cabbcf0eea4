"""In-memory span tracing for the benchmark's traced run.

A :class:`Tracer` records one span per call into a layer: its name, start,
end and the span that was open when it began (its parent).  Spans nest on
one stack because the program is single-threaded, so a layer's *self
time* (its spans' duration minus the part covered by child spans) is
accumulated exactly as each span closes.  Aggregates cover every span;
the span list itself is capped so a slot-by-slot live run cannot grow it
without bound, and the number of spans past the cap is reported.

:func:`instrument` wraps the public entry points of each layer for the
duration of a ``with`` block.  A function imported by name elsewhere
(``repro.core.manager`` does ``from .interface_gen import
generate_interfaces``) is replaced in every ``repro`` module that binds
it, because the caller's own binding is the one that runs.  All
bindings are restored on exit.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

#: Spans kept in memory for the written trace; aggregates count them all.
SPAN_CAP = 50_000

Name = Union[str, Callable[[tuple, dict], str]]
Observer = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Span recorder with exact per-name call, total and self time."""

    def __init__(self) -> None:
        #: Open spans: ``[span_id, name, start, covered_by_children]``.
        self._stack: List[list] = []
        #: Closed spans ``(span_id, parent_id, name, start, end)``.
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self._next_id = 0
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Free-form counters filled by observers (moved partitions, ...).
        self.counts: Dict[str, float] = defaultdict(float)

    def open(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def close(self) -> float:
        """Close the innermost span; returns its duration in seconds."""
        end = time.perf_counter()
        span_id, name, start, covered = self._stack.pop()
        duration = end - start
        stack = self._stack
        parent_id = -1
        if stack:
            parent = stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - covered
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent_id, name, start, end))
        else:
            self.dropped += 1
        return duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def wrap(
        self, fn: Callable, name: Name, observe: Optional[Observer] = None
    ) -> Callable:
        """``fn`` with a span around every call; ``name`` may be a
        function of the call's ``(args, kwargs)``."""
        tracer = self
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            tracer.open(fixed or name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        """Self time of every span named ``layer`` or ``layer.*``."""
        prefix = layer + "."
        return float(sum(
            value for name, value in self.self_s.items()
            if name == layer or name.startswith(prefix)
        ))

    def write_jsonl(self, path: str, header: Dict[str, object]) -> None:
        """The header line, then one JSON object per kept span."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(dict(header, dropped=self.dropped)) + "\n")
            for span_id, parent_id, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent_id,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# the layer boundaries
# ----------------------------------------------------------------------


def _interface_gen_name(args: tuple, kwargs: dict) -> str:
    return (
        "interface_gen.subtree"
        if kwargs.get("root") is not None
        else "interface_gen.full"
    )


def _observe_adjustment(tracer: Tracer, args, kwargs, outcome) -> None:
    tracer.counts["adjustment.moved_partitions"] += len(
        outcome.moved_partitions
    )
    if not outcome.success:
        tracer.counts["adjustment.failed"] += 1


#: Module-level functions: ``(module, attribute, span name, observer)``.
FUNCTIONS = (
    ("repro.core.interface_gen", "generate_interfaces", _interface_gen_name,
     None),
    ("repro.packing.composition", "compose_components", "packing.compose",
     None),
    ("repro.core.allocation", "allocate_partitions", "allocation", None),
    ("repro.core.link_sched", "build_schedule", "link_sched.build", None),
    ("repro.core.link_sched", "schedule_node_links", "link_sched.node",
     None),
    ("repro.core.link_sched", "rate_monotonic_priority",
     "link_sched.priority", None),
)

#: Methods: ``(module, class, method, span name, observer)``.
METHODS = (
    ("repro.core.demand", "DemandLedger", "rebuild", "demand.build", None),
    ("repro.core.demand", "DemandLedger", "apply_change", "demand.apply",
     None),
    ("repro.core.demand", "DemandLedger", "preview_rate_change",
     "demand.apply", None),
    ("repro.core.demand", "DemandLedger", "change_rate", "demand.apply",
     None),
    ("repro.core.partition", "PartitionTable", "validate_isolation",
     "certify.isolation", None),
    ("repro.net.slotframe", "Schedule", "validate_collision_free",
     "certify.collision", None),
    ("repro.core.manager", "HarpNetwork", "validate", "certify.op", None),
    ("repro.core.manager", "HarpNetwork", "rebootstrap",
     "dynamics.rebootstrap", None),
    ("repro.net.topology", "TreeTopology", "with_attached",
     "topology.rebuild", None),
    ("repro.net.topology", "TreeTopology", "with_detached",
     "topology.rebuild", None),
    ("repro.net.topology", "TreeTopology", "with_reparented",
     "topology.rebuild", None),
    ("repro.core.adjustment", "PartitionAdjuster",
     "request_component_increase", "adjustment", _observe_adjustment),
    ("repro.core.adjustment", "PartitionAdjuster", "release_component",
     "adjustment", _observe_adjustment),
    ("repro.net.sim.engine", "TSCHSimulator", "run_slots",
     "engine.run_slots", None),
    ("repro.net.sim.engine", "TSCHSimulator", "set_schedule",
     "engine.set_schedule", None),
    ("repro.agents.node", "HarpNodeAgent", "handle", "agents.handle", None),
)

#: Modules whose by-name imports must exist before bindings are swapped.
_CALLER_MODULES = (
    "repro.core.manager",
    "repro.core.dynamics",
    "repro.agents.live",
    "repro.agents.runtime",
)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer boundary in :data:`FUNCTIONS` and
    :data:`METHODS` while the block runs."""
    for module in _CALLER_MODULES:
        importlib.import_module(module)
    undo: List[Tuple[object, str, object]] = []
    try:
        for module, attr, name, observe in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            traced = tracer.wrap(original, name, observe)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, traced)
                        undo.append((loaded, key, original))
        for module, cls_name, attr, name, observe in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(original, name, observe))
            undo.append((cls, attr, original))
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

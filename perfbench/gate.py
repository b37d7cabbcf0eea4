"""Correctness gate run on every benchmark run.

A check that fails raises :class:`GateError`; the run then reports
``"correct": false`` and exits non-zero, so a broken program yields an
error, never a number.

* Manager-level workloads (``bootstrap``, ``churn``): the HARP
  certificate (:meth:`HarpNetwork.validate` — partition isolation and a
  collision-free schedule), the demand ledger against a from-scratch
  recompute (:meth:`DemandLedger.verify`), and
  :func:`repro.workload.network_digest` of the state.
* Data-plane workloads (``floor``, ``telemetry``, and the probes):
  :meth:`TSCHSimulator.conservation_findings` must be empty, and
  :func:`repro.workload.metrics_digest` fingerprints the run.

Digests that must agree are compared with :func:`check_same`; the
benchmark also prints them so two runs of one seed can be compared.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.core.demand import LedgerError
from repro.core.manager import HarpNetwork
from repro.core.partition import PartitionIsolationError
from repro.net.slotframe import ScheduleConflictError
from repro.workload import metrics_digest, network_digest


class GateError(RuntimeError):
    """A benchmark run's output failed its correctness check."""


def check_network(harp: HarpNetwork, label: str) -> str:
    """Certify a manager-level network; returns its state digest."""
    try:
        harp.validate()
        if harp.demand_ledger is None:
            raise GateError(f"{label}: network keeps no demand ledger")
        harp.demand_ledger.verify(harp.topology, harp.task_set)
    except (PartitionIsolationError, ScheduleConflictError, LedgerError) as exc:
        raise GateError(f"{label}: {type(exc).__name__}: {exc}") from exc
    return network_digest(harp)


def check_engine(sim, label: str) -> str:
    """Certify a simulator's packet accounting; returns its digest."""
    findings = sim.conservation_findings()
    if findings:
        raise GateError(f"{label}: conservation: {'; '.join(findings)}")
    return metrics_digest(sim)


def check_schedule(schedule, topology, label: str) -> None:
    """Collision-freedom of a schedule the live layer owns."""
    try:
        schedule.validate_collision_free(topology)
    except ScheduleConflictError as exc:
        raise GateError(f"{label}: {exc}") from exc


def check_same(label: str, digests: Iterable[str]) -> str:
    """All ``digests`` must be equal; returns the common value."""
    distinct = set(digests)
    if len(distinct) != 1:
        raise GateError(
            f"{label}: outputs differ between identical inputs "
            f"({len(distinct)} distinct digests)"
        )
    return distinct.pop()


def combine(parts: Iterable[str]) -> str:
    """One digest over an ordered sequence of digests or tokens."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()

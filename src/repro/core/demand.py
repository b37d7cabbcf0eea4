"""Incremental per-link demand maintenance (the dynamics hot path).

Every dynamics op used to recompute ``TaskSet.link_demands`` from
scratch — O(tasks x path length) — even though a rate change touches
one task's links and a reparent touches one subtree's paths.  The
:class:`DemandLedger` maintains the per-link accumulated rate as a
persistent structure updated in O(affected links) per op.

Byte-identity with the naive recompute rests on the summation-order
contract of :mod:`repro.net.tasks`: per-link sums are exact fixed-point
integers (:func:`~repro.net.tasks.scaled_rate`), so addition is
associative and exactly reversible.  Removing a task's contribution
restores precisely the integer the sum held before it was added, in any
order — hence ``ledger.demands`` equals ``task_set.link_demands(topo)``
after every op, as the equivalence property suite asserts.

The same walk keeps, per link, the multiset of contributing task
periods, so the Rate-Monotonic priority (ascending minimum period
through the link) is read from the ledger instead of being rebuilt from
every task's path after every op.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, Optional, Set, Tuple

from ..net.tasks import Task, TaskSet, demand_from_scaled, scaled_rate
from ..net.topology import LinkRef, TreeTopology


class LedgerError(RuntimeError):
    """The ledger diverged from the task set (a maintenance bug)."""


class DemandLedger:
    """Exact incremental view of per-link demands.

    Attributes
    ----------
    scaled:
        Per-link accumulated rate in units of ``2**-DEMAND_SHIFT``
        (exact integers; the source of truth).
    demands:
        Per-link cell requirement derived from ``scaled`` — always equal
        to ``task_set.link_demands(topology)`` for the state the ledger
        has been told about.  A link leaves both dicts when its last
        contributing task goes (rates are positive, so a zero sum means
        no contributors).
    periods:
        Per-link multiset ``{period: task count}`` of the contributing
        tasks' periods (slotframes); :meth:`min_period` is the RM key.
    """

    def __init__(self, topology: TreeTopology, task_set: TaskSet) -> None:
        self.scaled: Dict[LinkRef, int] = {}
        self.demands: Dict[LinkRef, int] = {}
        self.periods: Dict[LinkRef, Dict[float, int]] = {}
        self.rebuild(topology, task_set)

    # ------------------------------------------------------------------
    # bulk (re)construction
    # ------------------------------------------------------------------

    def rebuild(self, topology: TreeTopology, task_set: TaskSet) -> None:
        """Reset from scratch (bootstrap and the rebootstrap fallback):
        one walk over every task's path fills the scaled sums and the
        period multisets."""
        self.scaled, self.periods = _link_sums(topology, task_set)
        self.demands = {
            link: demand_from_scaled(value)
            for link, value in self.scaled.items()
        }

    # ------------------------------------------------------------------
    # the Rate-Monotonic key
    # ------------------------------------------------------------------

    def min_period(self, link: LinkRef) -> float:
        """Shortest period of any task crossing ``link`` (``inf`` when
        none does) — what :func:`~repro.core.link_sched.
        rate_monotonic_priority` computes from the whole task set."""
        bag = self.periods.get(link)
        return min(bag) if bag else math.inf

    def rm_priority(self, topology: TreeTopology, link: LinkRef) -> Tuple:
        """Rate-Monotonic priority (a :data:`~repro.core.link_sched.
        PriorityFn`): the key :func:`~repro.core.link_sched.
        rate_monotonic_priority` gives over the task set and topology the
        ledger was last told about."""
        return (self.min_period(link), link.child)

    # ------------------------------------------------------------------
    # O(affected links) updates
    # ------------------------------------------------------------------

    def _shift(
        self,
        topology: TreeTopology,
        task: Task,
        delta: int,
        old_period: Optional[float],
        new_period: Optional[float],
    ) -> None:
        """Add ``delta`` to every path link's sum and move one count in
        its period multiset from ``old_period`` to ``new_period``
        (``None`` = the task was absent / is leaving)."""
        if delta == 0:
            return
        for path in _paths(topology, task):
            for link in path:
                self._add(link, delta)
                if old_period is not None:
                    self._drop_period(link, old_period)
                if new_period is not None:
                    self._put_period(link, new_period)

    def _put_period(self, link: LinkRef, period: float) -> None:
        bag = self.periods.get(link)
        if bag is None:
            self.periods[link] = {period: 1}
        else:
            bag[period] = bag.get(period, 0) + 1

    def _drop_period(self, link: LinkRef, period: float) -> None:
        bag = self.periods.get(link)
        count = bag.get(period, 0) if bag is not None else 0
        if count == 0:
            raise LedgerError(
                f"period {period} not recorded on {link}: ledger out of sync"
            )
        if count > 1:
            bag[period] = count - 1
        elif len(bag) > 1:
            del bag[period]
        else:
            del self.periods[link]

    def _add(self, link: LinkRef, delta: int) -> None:
        total = self.scaled.get(link, 0) + delta
        if total > 0:
            self.scaled[link] = total
            self.demands[link] = demand_from_scaled(total)
        elif total == 0:
            self.scaled.pop(link, None)
            self.demands.pop(link, None)
        else:
            raise LedgerError(
                f"negative accumulated rate on {link}: ledger out of sync"
            )

    def add_task(self, topology: TreeTopology, task: Task) -> None:
        """Fold a new task's contribution into its path links."""
        self._shift(
            topology, task, scaled_rate(task.rate),
            None, task.period_slotframes,
        )

    def remove_task(self, topology: TreeTopology, task: Task) -> None:
        """Remove a task's contribution (exact inverse of add)."""
        self._shift(
            topology, task, -scaled_rate(task.rate),
            task.period_slotframes, None,
        )

    def change_rate(
        self, topology: TreeTopology, task: Task, new_rate: float
    ) -> None:
        """Move ``task`` (at its old rate) to ``new_rate``."""
        self._shift(
            topology, task, scaled_rate(new_rate) - scaled_rate(task.rate),
            task.period_slotframes, replace(task, rate=new_rate).period_slotframes,
        )

    def preview_rate_change(
        self, topology: TreeTopology, task: Task, new_rate: float
    ) -> Dict[LinkRef, int]:
        """The demands the affected links would hold after the change,
        without mutating the ledger (rate changes are applied link by
        link with per-link rollback by the manager)."""
        delta = scaled_rate(new_rate) - scaled_rate(task.rate)
        out: Dict[LinkRef, int] = {}
        for link in TaskSet.links_of_task(topology, task):
            out[link] = demand_from_scaled(self.scaled.get(link, 0) + delta)
        return out

    # ------------------------------------------------------------------
    # whole-op application (the dynamics layer's entry point)
    # ------------------------------------------------------------------

    def apply_change(
        self,
        kind: str,
        node: int,
        old_topology: TreeTopology,
        new_topology: TreeTopology,
        old_tasks: TaskSet,
        new_tasks: TaskSet,
    ) -> None:
        """Apply one topology op's demand delta in O(affected links).

        ``attach`` adds new tasks' paths; ``detach`` removes departed
        tasks' old paths; ``reparent`` re-routes every task whose path
        crosses the moved subtree (removal under the old topology plus
        re-addition under the new one — intra-subtree links cancel
        exactly, so only the changed path segments see a net update).
        """
        if kind == "attach":
            for task in new_tasks:
                if task.task_id not in old_tasks:
                    self.add_task(new_topology, task)
        elif kind == "detach":
            for task in old_tasks:
                if task.task_id not in new_tasks:
                    self.remove_task(old_topology, task)
        elif kind == "reparent":
            moved = old_topology.subtree_span(node)
            moved_set: Set[int] = set(moved)
            for task in new_tasks:
                if task.source in moved_set or (
                    task.echo and task.downlink_target in moved_set
                ):
                    self.remove_task(old_topology, task)
                    self.add_task(new_topology, task)
        else:
            raise LedgerError(f"unknown topology change kind {kind!r}")

    # ------------------------------------------------------------------
    # oracle
    # ------------------------------------------------------------------

    def verify(self, topology: TreeTopology, task_set: TaskSet) -> None:
        """Assert the ledger matches a from-scratch recompute (the
        naive-recompute oracle of the equivalence suite)."""
        fresh = task_set.link_scaled_rates(topology)
        if fresh != self.scaled:
            extra = set(self.scaled) - set(fresh)
            missing = set(fresh) - set(self.scaled)
            drifted = {
                link
                for link in set(fresh) & set(self.scaled)
                if fresh[link] != self.scaled[link]
            }
            raise LedgerError(
                f"scaled sums diverged: extra={sorted(map(str, extra))} "
                f"missing={sorted(map(str, missing))} "
                f"drifted={sorted(map(str, drifted))}"
            )
        naive = {
            link: demand_from_scaled(value) for link, value in fresh.items()
        }
        if naive != self.demands:
            raise LedgerError("derived demands diverged from scaled sums")
        _, periods = _link_sums(topology, task_set)
        if periods != self.periods:
            raise LedgerError("period multisets diverged from the task set")


def _paths(
    topology: TreeTopology, task: Task
) -> Tuple[Tuple[LinkRef, ...], ...]:
    """The legs of ``task``'s route; their links, in order, are
    :meth:`TaskSet.links_of_task`."""
    up = topology.uplink_refs(task.source)
    if task.echo:
        return (up, topology.downlink_refs(task.downlink_target))
    return (up,)


def _link_sums(topology: TreeTopology, task_set: TaskSet):
    """Per-link exact scaled rate sums (equal to
    :meth:`TaskSet.link_scaled_rates`) and period multisets, in one
    walk over every task's path."""
    sums: Dict[LinkRef, int] = {}
    periods: Dict[LinkRef, Dict[float, int]] = {}
    get = sums.get
    for task in task_set:
        scaled = scaled_rate(task.rate)
        period = task.period_slotframes
        for path in _paths(topology, task):
            for link in path:
                sums[link] = get(link, 0) + scaled
                bag = periods.get(link)
                if bag is None:
                    periods[link] = {period: 1}
                else:
                    bag[period] = bag.get(period, 0) + 1
    return sums, periods

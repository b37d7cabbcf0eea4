"""Partitions and the partition table (Sec. IV-C bookkeeping).

A *partition* ``P_{i,l} = [C_{i,l}, t_{i,l}, c_{i,l}]`` is a resource
component placed in the slotframe: its region's ``x`` is the starting
time slot and ``y`` the lowest channel index.  The
:class:`PartitionTable` indexes every allocated partition by
``(owner, layer, direction)`` and offers the isolation validators that
back HARP's collision-freedom argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..net.topology import Direction, TreeTopology
from ..packing.geometry import PlacedRect

#: Table key: (owner node, layer, direction).
PartitionKey = Tuple[int, int, Direction]


def _first_overlap(
    group: List["Partition"],
) -> Optional[Tuple["Partition", "Partition"]]:
    """The first overlapping pair in ``group``, or None when disjoint.

    Sweep-line over the slot axis: after sorting by start slot, each
    partition is only compared to the still-active ones (start slot
    reached, end slot not passed).  On the disjoint tilings produced by
    allocation the active set stays tiny, so wide sibling groups (e.g.
    the gateway's at a breadth-heavy layer) cost O(k log k) rather than
    the all-pairs O(k²).
    """
    if len(group) < 2:
        return None
    ordered = sorted(
        (p for p in group if not p.region.is_empty),
        key=lambda p: p.region.x,
    )
    active: List[Partition] = []
    for part in ordered:
        region = part.region
        still: List[Partition] = []
        for other in active:
            o_region = other.region
            if o_region.x + o_region.width <= region.x:
                continue  # ends before this one starts: retire it
            still.append(other)
            if (
                region.y < o_region.y + o_region.height
                and o_region.y < region.y + region.height
            ):
                return other, part
        still.append(part)
        active = still
    return None


def _check_group_disjoint(group: List["Partition"]) -> None:
    """Raise when any two partitions in ``group`` overlap."""
    overlap = _first_overlap(group)
    if overlap is not None:
        raise PartitionIsolationError(
            f"sibling partitions overlap: {overlap[0]} vs {overlap[1]}"
        )


@dataclass(frozen=True)
class Partition:
    """A placed resource block dedicated to subtree ``G_owner`` at one
    layer, for one traffic direction."""

    owner: int
    layer: int
    direction: Direction
    region: PlacedRect

    @property
    def start_slot(self) -> int:
        """``t_{i,l}``: first time slot of the partition."""
        return self.region.x

    @property
    def start_channel(self) -> int:
        """``c_{i,l}``: lowest channel index of the partition."""
        return self.region.y

    @property
    def n_slots(self) -> int:
        """Slot extent of the partition."""
        return self.region.width

    @property
    def n_channels(self) -> int:
        """Channel extent of the partition."""
        return self.region.height

    @property
    def capacity(self) -> int:
        """Total cells inside the partition."""
        return self.region.area

    @property
    def key(self) -> PartitionKey:
        """Index key in a :class:`PartitionTable`."""
        return (self.owner, self.layer, self.direction)

    def moved_to(self, region: PlacedRect) -> "Partition":
        """A copy at a different region."""
        return Partition(self.owner, self.layer, self.direction, region)

    def __str__(self) -> str:
        return (
            f"P[{self.owner},{self.layer},{self.direction.value}]@"
            f"(slot {self.region.x}+{self.region.width}, "
            f"ch {self.region.y}+{self.region.height})"
        )


class PartitionIsolationError(RuntimeError):
    """The partition table violates a HARP isolation invariant."""


class PartitionTable:
    """All partitions of the network, indexed by (owner, layer, direction).

    :meth:`set` and :meth:`remove` journal the keys they touch, so a
    table certified isolated can be re-certified by checking only the
    touched partitions (:meth:`touched_isolated`).  A new table — built,
    copied or loaded — counts every key as touched until the first
    :meth:`clear_journal`.
    """

    def __init__(self) -> None:
        self._table: Dict[PartitionKey, Partition] = {}
        # Secondary index: owner -> {(layer, direction): partition}.
        # Keeps ``of_node`` O(own partitions) instead of O(table); the
        # dynamics purge path calls it once per moved subtree member.
        self._by_owner: Dict[int, Dict[Tuple[int, Direction], Partition]] = {}
        # Keys touched since the last clear_journal(); None = all.
        self._journal: Optional[Set[PartitionKey]] = None

    @property
    def journal(self) -> Optional[Set[PartitionKey]]:
        """Keys touched since the last :meth:`clear_journal`; ``None``
        when every key counts as touched."""
        return self._journal

    def clear_journal(self) -> None:
        """Start a new journal window (after a certificate passed)."""
        self._journal = set()

    def mark_all_touched(self) -> None:
        """Count every key as touched: the next certificate is the full
        one."""
        self._journal = None

    def set(self, partition: Partition) -> None:
        """Insert or replace a partition."""
        self._table[partition.key] = partition
        if self._journal is not None:
            self._journal.add(partition.key)
        self._by_owner.setdefault(partition.owner, {})[
            (partition.layer, partition.direction)
        ] = partition

    def get(
        self, owner: int, layer: int, direction: Direction
    ) -> Optional[Partition]:
        """Look up a partition, or None."""
        return self._table.get((owner, layer, direction))

    def require(self, owner: int, layer: int, direction: Direction) -> Partition:
        """Look up a partition; KeyError when absent."""
        return self._table[(owner, layer, direction)]

    def remove(self, owner: int, layer: int, direction: Direction) -> None:
        """Delete a partition if present."""
        removed = self._table.pop((owner, layer, direction), None)
        if removed is not None:
            if self._journal is not None:
                self._journal.add(removed.key)
            owned = self._by_owner[owner]
            del owned[(layer, direction)]
            if not owned:
                del self._by_owner[owner]

    def of_node(self, owner: int) -> List[Partition]:
        """All partitions owned by ``owner``, sorted by (direction, layer)."""
        owned = self._by_owner.get(owner)
        if not owned:
            return []
        return sorted(
            owned.values(), key=lambda p: (p.direction.value, p.layer)
        )

    def at_layer(self, layer: int, direction: Direction) -> List[Partition]:
        """All partitions at one (layer, direction), sorted by owner."""
        return sorted(
            (
                p
                for p in self._table.values()
                if p.layer == layer and p.direction is direction
            ),
            key=lambda p: p.owner,
        )

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[Partition]:
        return iter(sorted(self._table.values(), key=lambda p: p.key[:2]))

    def copy(self) -> "PartitionTable":
        """Shallow copy (partitions are immutable)."""
        clone = PartitionTable()
        clone._table = dict(self._table)
        clone._by_owner = {
            owner: dict(owned) for owner, owned in self._by_owner.items()
        }
        return clone

    # ------------------------------------------------------------------
    # isolation invariants (Sec. IV-C)
    # ------------------------------------------------------------------

    def validate_isolation(self, topology: TreeTopology) -> None:
        """Check the HARP isolation invariants; raise on violation.

        1. A child's partition at layer ``l`` lies inside its parent's
           partition at the same (layer, direction).
        2. Sibling partitions at the same (layer, direction) are disjoint.
        3. The gateway's top-level partitions are pairwise disjoint
           across layers and directions.
        """
        gateway = topology.gateway_id
        overlap = self._gateway_overlap(gateway)
        if overlap is not None:
            raise PartitionIsolationError(
                f"gateway partitions overlap: {overlap[0]} vs {overlap[1]}"
            )

        # Group non-gateway partitions by (parent, layer, direction) so
        # the sibling-disjointness check compares each sibling group
        # pairwise once, instead of re-walking ``children_of(parent)``
        # with table lookups for every partition.
        parent_map = topology.parent_map
        sibling_groups: Dict[
            Tuple[int, int, Direction], List[Partition]
        ] = {}
        for partition in self._table.values():
            owner = partition.owner
            if owner == gateway:
                continue
            parent = parent_map[owner]
            parent_part = self._table.get(
                (parent, partition.layer, partition.direction)
            )
            if parent_part is None:
                raise PartitionIsolationError(
                    f"{partition} has no parent partition at "
                    f"({parent}, {partition.layer}, {partition.direction})"
                )
            if not parent_part.region.contains(partition.region):
                raise PartitionIsolationError(
                    f"{partition} escapes parent {parent_part}"
                )
            sibling_groups.setdefault(
                (parent, partition.layer, partition.direction), []
            ).append(partition)
        for group in sibling_groups.values():
            _check_group_disjoint(group)

    def touched_isolated(self, topology: TreeTopology) -> bool:
        """:meth:`validate_isolation`'s checks restricted to the
        journalled keys: each touched partition lies in its parent's and
        holds its children's, each touched sibling group is disjoint,
        and — when a gateway key was touched — the gateway's top-level
        partitions are pairwise disjoint.

        Every isolation invariant relates a partition to its parent, its
        siblings or (for the gateway) its top-level peers, so on a table
        that was isolated when the window opened this gives the full
        check's verdict.  Returns False on a violation or when the
        journal covers everything (the caller then runs the full check).
        """
        if self._journal is None:
            return False
        gateway = topology.gateway_id
        parent_map = topology.parent_map
        table = self._table
        groups: Set[Tuple[int, int, Direction]] = set()
        gateway_touched = False
        for key in self._journal:
            owner, layer, direction = key
            part = table.get(key)
            if owner == gateway:
                gateway_touched = True
            elif part is not None:
                parent = parent_map.get(owner)
                if parent is None:
                    return False  # stale owner: the full check says why
                parent_part = table.get((parent, layer, direction))
                if parent_part is None or not parent_part.region.contains(
                    part.region
                ):
                    return False
                groups.add((parent, layer, direction))
            if owner in topology:
                for child in topology.children_of(owner):
                    child_part = table.get((child, layer, direction))
                    if child_part is not None and (
                        part is None
                        or not part.region.contains(child_part.region)
                    ):
                        return False
        for parent, layer, direction in groups:
            group = [
                sibling
                for child in topology.children_of(parent)
                for sibling in [table.get((child, layer, direction))]
                if sibling is not None
            ]
            if _first_overlap(group) is not None:
                return False
        return not gateway_touched or self._gateway_overlap(gateway) is None

    def _gateway_overlap(
        self, gateway: int
    ) -> Optional[Tuple[Partition, Partition]]:
        """The first overlapping pair of the gateway's top-level
        partitions (across layers and directions), or None."""
        top = list(self._by_owner.get(gateway, {}).values())
        for i, a in enumerate(top):
            for b in top[i + 1:]:
                if a.region.overlaps(b.region):
                    return a, b
        return None

"""Mount redirection: load-balancing mounts across server nodes.

A deployment with K metadata/file servers needs each new mount steered
to one of them.  Real fleets do this with a referral service (NFSv4
``fs_locations``) or a MOUNT-level redirector; here the policy is the
deterministic heart of it: *least-loaded, lowest index wins ties*.
Determinism matters doubly — placement happens at cluster build time,
before the simulation runs, and the check suite requires identical
placements across sanitized and perturbed runs.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["MountRedirector"]


class MountRedirector:
    """Deterministic least-loaded placement over ``targets``."""

    def __init__(self, targets: Sequence):
        if not targets:
            raise ValueError("redirector needs at least one target")
        self._targets = list(targets)
        self._load = [0] * len(self._targets)
        #: (mount id, target index) in placement order — the audit trail
        #: telemetry exports as ``shard_mounts``.
        self.assignments: list[tuple[int, int]] = []

    @property
    def targets(self) -> list:
        return list(self._targets)

    def place(self, mount_id: int):
        """Assign ``mount_id``; returns ``(index, target)``."""
        index = min(range(len(self._load)), key=lambda i: (self._load[i], i))
        self._load[index] += 1
        self.assignments.append((mount_id, index))
        return index, self._targets[index]

    def index_of(self, mount_id: int) -> Optional[int]:
        for mid, index in self.assignments:
            if mid == mount_id:
                return index
        return None

    def counts(self) -> tuple[int, ...]:
        """Mounts per target — balanced to within one by construction."""
        return tuple(self._load)

    @property
    def imbalance(self) -> int:
        return max(self._load) - min(self._load)

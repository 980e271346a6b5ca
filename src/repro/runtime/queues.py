"""Bounded ingestion queues with pluggable backpressure policies.

The paper's middleware is push-synchronous: every sensor reading crosses
the whole processing graph before the next is admitted.  At "millions of
users" scale (ROADMAP north star) ingestion must instead absorb bursts
and shed load *by policy* -- and, in PerPos style, the policy must be an
inspectable, adaptable seam rather than a hard-coded behaviour (the
RAFDA argument: distribution/scale policy separable from application
logic).

An :class:`IngestionQueue` is a bounded FIFO of
:class:`~repro.core.data.Datum` with one of four backpressure policies:

``block``
    A full queue refuses new datums (:meth:`IngestionQueue.offer`
    returns ``REJECTED``); the producer keeps the datum and decides --
    the deterministic single-threaded analogue of blocking the caller.
``drop_oldest``
    A full queue evicts its oldest pending datum to admit the new one
    (freshness wins -- the usual choice for positioning fixes).
``drop_newest``
    A full queue drops the incoming datum (history wins).
``coalesce``
    An incoming datum *replaces* the newest pending datum of the same
    kind in place, so the queue holds at most the freshest reading per
    kind plus whatever other kinds are pending; on overflow with no
    same-kind entry it behaves like ``drop_oldest``.

Every decision is counted (``accepted`` / ``rejected`` /
``dropped_oldest`` / ``dropped_newest`` / ``coalesced``) and the depth
high-water mark is tracked.  The queue is the only record of these
counts: the engine's snapshot, the PSL's ``describe()`` and the report
read them here.  Each offer settles exactly one verdict, so
``offered == accepted + rejected + dropped_newest + coalesced``;
``dropped_oldest`` counts pending datums evicted after they were
accepted.  Policies and capacity are mutable at runtime
(:meth:`set_policy` / :meth:`set_capacity`) -- adaptation of the
internal positioning process, applied to its ingestion edge.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.core.data import Datum

#: Backpressure policy names.
BLOCK = "block"
DROP_OLDEST = "drop_oldest"
DROP_NEWEST = "drop_newest"
COALESCE = "coalesce"

POLICIES = (BLOCK, DROP_OLDEST, DROP_NEWEST, COALESCE)

#: Offer verdicts returned by :meth:`IngestionQueue.offer`.
ACCEPTED = "accepted"
REJECTED = "rejected"  # block: the producer keeps the datum
DROPPED = "dropped"  # drop_newest: the incoming datum was shed
COALESCED = "coalesced"  # coalesce: replaced a pending same-kind datum


class QueueError(Exception):
    """Raised on invalid queue configuration or use."""


class IngestionQueue:
    """A bounded, policy-governed FIFO feeding one ingestion lane."""

    def __init__(
        self,
        name: str,
        capacity: int = 64,
        policy: str = DROP_OLDEST,
    ) -> None:
        if capacity < 1:
            raise QueueError("capacity must be >= 1")
        _validate_policy(policy)
        self.name = name
        self._capacity = capacity
        self._policy = policy
        self._items: Deque[Datum] = deque()
        # Decision counters -- the backpressure seam indicators.
        self.offered = 0
        self.accepted = 0
        self.rejected = 0
        self.dropped_oldest = 0
        self.dropped_newest = 0
        self.coalesced = 0
        # Per-key (kind) collision counts under the coalesce policy:
        # how often an incoming datum replaced a pending same-kind one.
        # The total equals ``coalesced``; the breakdown shows *which*
        # kinds are racing, which the flat counter hides.
        self.coalesce_collisions: Dict[str, int] = {}
        self.drained = 0
        self.high_water = 0

    # -- configuration (the adaptation seam) -------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def policy(self) -> str:
        return self._policy

    def set_policy(self, policy: str) -> str:
        """Swap the backpressure policy; returns the previous one."""
        _validate_policy(policy)
        previous = self._policy
        self._policy = policy
        return previous

    def set_capacity(self, capacity: int) -> int:
        """Re-bound the queue; shrinking evicts oldest pending datums."""
        if capacity < 1:
            raise QueueError("capacity must be >= 1")
        previous = self._capacity
        self._capacity = capacity
        items = self._items
        while len(items) > capacity:
            items.popleft()
            self.dropped_oldest += 1
        return previous

    # -- the producer side --------------------------------------------------

    def offer(self, datum: Datum) -> str:
        """Submit one datum; returns the policy's verdict.

        ``ACCEPTED`` means the datum is pending (possibly at the cost of
        an evicted older one, counted in ``dropped_oldest``);
        ``COALESCED`` means it replaced a pending same-kind datum;
        ``DROPPED`` and ``REJECTED`` mean it was shed -- the difference
        is who is told: ``rejected`` (``block``) signals the producer to
        retry, ``dropped`` (``drop_newest``) is silent shedding.
        """
        self.offered += 1
        items = self._items
        policy = self._policy
        if policy == COALESCE:
            kind = datum.kind
            for index in range(len(items) - 1, -1, -1):
                if items[index].kind == kind:
                    items[index] = datum
                    self.coalesced += 1
                    self.coalesce_collisions[kind] = (
                        self.coalesce_collisions.get(kind, 0) + 1
                    )
                    return COALESCED
        if len(items) >= self._capacity:
            if policy == BLOCK:
                self.rejected += 1
                return REJECTED
            if policy == DROP_NEWEST:
                self.dropped_newest += 1
                return DROPPED
            # DROP_OLDEST, and COALESCE overflowing on a new kind.
            items.popleft()
            self.dropped_oldest += 1
        items.append(datum)
        self.accepted += 1
        depth = len(items)
        if depth > self.high_water:
            self.high_water = depth
        return ACCEPTED

    # -- the scheduler side --------------------------------------------------

    def drain(self, max_items: Optional[int] = None) -> List[Datum]:
        """Pop up to ``max_items`` pending datums in FIFO order."""
        items = self._items
        if max_items is None or max_items >= len(items):
            batch = list(items)
            items.clear()
        else:
            if max_items <= 0:
                return []
            batch = [items.popleft() for _ in range(max_items)]
        self.drained += len(batch)
        return batch

    def peek(self) -> Optional[Datum]:
        """The oldest pending datum, or None while empty."""
        return self._items[0] if self._items else None

    def evictee(self) -> Optional[Datum]:
        """The datum ``drop_oldest`` would evict if offered now, or None.

        A single hot-path probe for producers (the ingestion gateway)
        that must recover the evicted datum -- e.g. to dead-letter it --
        before :meth:`offer` silently drops it.
        """
        if self._policy == DROP_OLDEST and len(self._items) >= self._capacity:
            return self._items[0]
        return None

    def clear(self) -> int:
        """Discard all pending datums; returns how many were discarded."""
        discarded = len(self._items)
        self._items.clear()
        self.dropped_oldest += discarded
        return discarded

    # -- inspection ----------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def dropped(self) -> int:
        """Total datums shed by backpressure (either end)."""
        return self.dropped_oldest + self.dropped_newest

    def counters(self) -> Dict[str, int]:
        """The counters a control loop reads; :meth:`stats` adds the rest."""
        return {
            "capacity": self._capacity,
            "depth": len(self._items),
            "high_water": self.high_water,
            "rejected": self.rejected,
            "dropped_oldest": self.dropped_oldest,
            "dropped_newest": self.dropped_newest,
            "coalesced": self.coalesced,
        }

    def stats(self) -> Dict[str, Any]:
        """Reflective summary -- what the PSL and the report surface."""
        stats: Dict[str, Any] = self.counters()
        stats.update(
            name=self.name,
            policy=self._policy,
            offered=self.offered,
            accepted=self.accepted,
            coalesce_collisions=dict(self.coalesce_collisions),
            drained=self.drained,
        )
        return stats

    # -- durability ----------------------------------------------------------

    def state_snapshot(self) -> Dict[str, Any]:
        """Full state for the durability seam: config, counters, datums.

        Pending datums are returned raw; the durability codec encodes
        them once for the whole engine snapshot.
        """
        return {
            "name": self.name,
            "capacity": self._capacity,
            "policy": self._policy,
            "items": list(self._items),
            "offered": self.offered,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "dropped_oldest": self.dropped_oldest,
            "dropped_newest": self.dropped_newest,
            "coalesced": self.coalesced,
            "coalesce_collisions": dict(self.coalesce_collisions),
            "drained": self.drained,
            "high_water": self.high_water,
        }

    def state_restore(self, state: Dict[str, Any]) -> None:
        """Rebuild queue contents and counters from a snapshot."""
        _validate_policy(state["policy"])
        if state["capacity"] < 1:
            raise QueueError("capacity must be >= 1")
        self._capacity = state["capacity"]
        self._policy = state["policy"]
        self._items = deque(state["items"])
        self.offered = state["offered"]
        self.accepted = state["accepted"]
        self.rejected = state["rejected"]
        self.dropped_oldest = state["dropped_oldest"]
        self.dropped_newest = state["dropped_newest"]
        self.coalesced = state["coalesced"]
        self.coalesce_collisions = dict(state["coalesce_collisions"])
        self.drained = state["drained"]
        self.high_water = state["high_water"]

    def __repr__(self) -> str:
        return (
            f"IngestionQueue(name={self.name!r}, policy={self._policy!r},"
            f" depth={len(self._items)}/{self._capacity})"
        )


def _validate_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise QueueError(
            f"unknown backpressure policy {policy!r};"
            f" expected one of {POLICIES}"
        )

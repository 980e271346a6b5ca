"""Durable state: snapshot/restore and crash-recovery replay.

Everything in the engine is in-memory and dies with the process; this
package makes *where state lives* a pluggable policy instead of engine
logic.  A :class:`StateStore` (stdlib backends: in-memory, JSON-lines
append log, sqlite) receives full snapshots of engine state — lanes and
their counters, queue contents, component state, supervision, gateway
dead letters, the hub's graph metric series — plus incremental journal
entries between snapshots, and :func:`restore_state` rebuilds a live
engine from the latest snapshot and replays the journal
deterministically.  :class:`DurabilityManager` covers the single engine
it journals and keeps the counts of its own activity (snapshots,
restores, entries replayed); warm handoffs between shards are recorded
by the sharded coordinator (``ShardedEngine.migrations()``).
"""

from repro.durability.codec import decode_value, encode_value
from repro.durability.journal import DurabilityJournal
from repro.durability.manager import (
    DurabilityError,
    DurabilityManager,
    capture_state,
    restore_from_store,
    restore_state,
)
from repro.durability.store import (
    JsonLinesStateStore,
    MemoryStateStore,
    SqliteStateStore,
    StateStore,
)

__all__ = [
    "DurabilityError",
    "DurabilityJournal",
    "DurabilityManager",
    "JsonLinesStateStore",
    "MemoryStateStore",
    "SqliteStateStore",
    "StateStore",
    "capture_state",
    "decode_value",
    "encode_value",
    "restore_from_store",
    "restore_state",
]

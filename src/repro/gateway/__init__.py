"""Ingestion gateway: the middleware's edge for raw external traffic.

The store-cleanse-forward boundary (SNIPPETS.md Snippet 2) in front of
the scale-out runtime: versioned wire formats
(:mod:`repro.gateway.wire`), per-source adapters with crosswalk
normalisation (:mod:`repro.gateway.adapters`), a bounded dead-letter
queue with replay-after-fix (:mod:`repro.gateway.dlq`), and the
:class:`IngestionGateway` pipeline tying them together in front of a
:class:`~repro.runtime.engine.PositioningEngine` or
:class:`~repro.runtime.sharding.ShardedEngine`
(:mod:`repro.gateway.gateway`).
"""

from .adapters import (
    Crosswalk,
    CrosswalkError,
    FieldMap,
    SourceAdapter,
    scale,
)
from .dlq import (
    EXHAUSTED,
    PENDING,
    REPLAYED,
    DeadLetter,
    DeadLetterQueue,
)
from .gateway import (
    ADMITTED,
    RATE_LIMITED,
    REJECTED,
    SHED,
    STAGES,
    AutoTrackPolicy,
    ClosedWorldPolicy,
    DevicePolicy,
    GatewayError,
    IngestionGateway,
)
from .ratelimit import RateLimiter, RateLimitError, TokenBucket
from .wire import (
    PHONE_TRACKER_V1,
    FieldSpec,
    WireFormat,
    WireFormatError,
    parse_timestamp,
)

__all__ = [
    "ADMITTED",
    "EXHAUSTED",
    "PENDING",
    "PHONE_TRACKER_V1",
    "RATE_LIMITED",
    "REJECTED",
    "REPLAYED",
    "SHED",
    "STAGES",
    "AutoTrackPolicy",
    "ClosedWorldPolicy",
    "Crosswalk",
    "CrosswalkError",
    "DeadLetter",
    "DeadLetterQueue",
    "DevicePolicy",
    "FieldMap",
    "FieldSpec",
    "GatewayError",
    "IngestionGateway",
    "RateLimitError",
    "RateLimiter",
    "SourceAdapter",
    "TokenBucket",
    "WireFormat",
    "WireFormatError",
    "parse_timestamp",
    "scale",
]

"""The ingestion gateway: the middleware's hostile-edge boundary.

:class:`IngestionGateway` is where raw external traffic meets the
runtime.  A payload submitted here walks a fixed pipeline::

    format lookup -> crosswalk -> schema -> freshness -> device policy
        -> admission queue -> (forward) engine lane

and every way off that path is accounted for: validation and policy
failures are *rejected* (dead-lettered with stage + reason), overload is
*shed* (dead-lettered with a ``shed``-class stage rather than blocking
or raising), and everything else is *accepted* into the engine's
per-target ingestion lanes.  ``submit`` never raises on bad input -- the
last-resort containment stage dead-letters payloads that break the
pipeline itself.

The crosswalk runs *before* schema validation on purpose: installing a
corrected :class:`~repro.gateway.adapters.Crosswalk` is exactly the
"fix" that makes previously-invalid payloads pass when dead letters are
replayed (:meth:`IngestionGateway.replay`), which is the
replay-after-fix loop the DLQ exists for.

Accept/track decisions for unknown devices live in a swappable
:class:`DevicePolicy` (Dearle et al.: policy-free middleware keeps such
decisions out of component logic): :class:`AutoTrackPolicy` tracks any
schema-valid device on first sight, :class:`ClosedWorldPolicy` admits
only pre-tracked targets.

Accounting invariant (pinned by the storm tests)::

    submitted == accepted + rejected + shed + rate_limited + pending

where ``pending`` is the admission-queue depth; DLQ replays are counted
separately (``dlq.total_replayed``) so clean-path counters always sum
exactly to submissions.  Each :class:`~repro.gateway.adapters
.SourceAdapter` splits the same outcomes by wire format (``accepted`` /
``rejected`` / ``shed`` / ``rate_limited``, plus ``replayed``); a
payload rejected before its format is known counts only on the gateway.
These counters, the adapters' and the DLQ's are the only record of the
edge's outcomes: :meth:`IngestionGateway.snapshot` shows them all, and
nothing copies them into the observability hub.  ``rate_limited`` (a
per-device token-bucket verdict, off by default) is deliberately
**not** dead-lettered: the traffic is well-formed excess, and flooding
the DLQ ring with it would evict the malformed payloads
replay-after-fix exists for.
"""

from __future__ import annotations

import time as _time
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from repro.core.subsystems import fmt
from repro.runtime import queues
from repro.runtime.queues import IngestionQueue
from repro.services.remote import RetryPolicy

from .adapters import Crosswalk, CrosswalkError, SourceAdapter
from .dlq import DeadLetter, DeadLetterQueue
from .ratelimit import RateLimiter
from .wire import PHONE_TRACKER_V1, WireFormat, WireFormatError

#: Verdicts returned by :meth:`IngestionGateway.submit`.
ADMITTED = "admitted"  # pending in the admission queue
REJECTED = "rejected"  # dead-lettered: validation/policy failure
SHED = "shed"  # dead-lettered: overload at the admission boundary
RATE_LIMITED = "rate_limited"  # shed by the token bucket, NOT dead-lettered

#: The payload field naming its wire format.
FORMAT_FIELD = "source_format"

#: DLQ stages in pipeline order (``admission``/``ingest`` are shed-class).
STAGES = (
    "format",
    "crosswalk",
    "schema",
    "freshness",
    "policy",
    "admission",
    "ingest",
    "internal",
)


class GatewayError(Exception):
    """Raised on invalid gateway configuration or use (never by submit)."""


class _Reject(Exception):
    """Internal control flow: a pipeline stage refused the payload."""

    def __init__(
        self, stage: str, reason: str, adapter: Optional[str] = None
    ) -> None:
        super().__init__(reason)
        self.stage = stage
        self.reason = reason
        self.adapter = adapter


class _RateLimited(_Reject):
    """Internal control flow: the device's token bucket is empty.

    A distinct type (caught before the generic ``_Reject`` handler)
    because the disposition differs: rate-limited payloads are counted
    and reported but never dead-lettered.
    """


# -- device admission policies (the policy seam) ----------------------------


class DevicePolicy:
    """Decides whether an unknown-but-valid device gets a lane.

    ``admit`` returns the keyword arguments for ``engine.track``
    (``capacity``/``policy``/``weight``) to accept the device, or None
    to refuse it.  The gateway consults the policy only for devices the
    engine does not already track.
    """

    def admit(
        self, device_id: str, payload: Mapping[str, Any], tracked: int
    ) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        return {"policy": type(self).__name__}


class AutoTrackPolicy(DevicePolicy):
    """Track any schema-valid device on first sight (the open default).

    ``max_devices`` caps how many devices may be auto-tracked in total
    (None = unbounded); beyond it new devices are refused, which keeps a
    device-id-spraying source from exhausting engine lanes.
    """

    def __init__(
        self,
        *,
        capacity: int = 64,
        policy: str = queues.DROP_OLDEST,
        weight: int = 1,
        max_devices: Optional[int] = None,
    ) -> None:
        self.capacity = capacity
        self.policy = policy
        self.weight = weight
        self.max_devices = max_devices

    def admit(
        self, device_id: str, payload: Mapping[str, Any], tracked: int
    ) -> Optional[Dict[str, Any]]:
        if self.max_devices is not None and tracked >= self.max_devices:
            return None
        return {
            "capacity": self.capacity,
            "policy": self.policy,
            "weight": self.weight,
        }

    def describe(self) -> Dict[str, Any]:
        return {
            "policy": type(self).__name__,
            "capacity": self.capacity,
            "lane_policy": self.policy,
            "weight": self.weight,
            "max_devices": self.max_devices,
        }


class ClosedWorldPolicy(DevicePolicy):
    """Admit only devices already tracked on the engine (closed world)."""

    def admit(
        self, device_id: str, payload: Mapping[str, Any], tracked: int
    ) -> Optional[Dict[str, Any]]:
        return None


# -- the gateway -------------------------------------------------------------


class IngestionGateway:
    """Validates, normalises and admits raw external payloads.

    A gateway starts out understanding ``phone_tracker_v1``, and
    :meth:`register_format` teaches it more.  Its adapters, keyed by
    format name, are its one table of formats: each holds its
    :class:`~repro.gateway.wire.WireFormat`.

    Parameters
    ----------
    engine:
        A :class:`~repro.runtime.engine.PositioningEngine` or
        :class:`~repro.runtime.sharding.ShardedEngine`; needs
        ``is_tracked``/``track``/``submit``.
    source:
        The source-component name new auto-tracked targets are bound to.
    device_policy:
        The unknown-device seam; :class:`AutoTrackPolicy` by default.
    admission_capacity / admission_policy:
        The burst-absorbing boundary queue.  ``block`` (the default)
        sheds the *incoming* payload when full; ``drop_oldest`` sheds
        the oldest pending one; ``drop_newest`` behaves like ``block``
        here.  ``coalesce`` is refused: a coalesced-away payload cannot
        be recovered for dead-lettering, which would break accounting.
    dlq_capacity / retry:
        Dead-letter ring bound and the replay backoff/attempt policy.
    max_age_s / max_future_s:
        Freshness window against the injected clock (None = no check).
    clock / time_fn:
        Time source; pass the simulation clock for determinism.
    """

    def __init__(
        self,
        engine: Any,
        source: str,
        *,
        device_policy: Optional[DevicePolicy] = None,
        admission_capacity: int = 256,
        admission_policy: str = queues.BLOCK,
        dlq_capacity: int = 256,
        retry: Optional[RetryPolicy] = None,
        max_age_s: Optional[float] = None,
        max_future_s: Optional[float] = None,
        rate_limit: Union[None, float, int, RateLimiter] = None,
        clock: Optional[Any] = None,
        time_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        if admission_policy == queues.COALESCE:
            raise GatewayError(
                "coalesce is not a valid admission policy: a coalesced"
                " payload cannot be recovered for dead-lettering"
            )
        self.engine = engine
        self.source = source
        self.device_policy = (
            device_policy if device_policy is not None else AutoTrackPolicy()
        )
        if clock is not None:

            def _clock_now() -> float:
                return clock.now

            self._now: Callable[[], float] = _clock_now
        elif time_fn is not None:
            self._now = time_fn
        else:
            self._now = _time.monotonic
        self.admission = IngestionQueue(
            "gateway-admission", admission_capacity, admission_policy
        )
        self.dlq = DeadLetterQueue(
            dlq_capacity, retry=retry, time_fn=self._now
        )
        self.max_age_s = max_age_s
        self.max_future_s = max_future_s
        if rate_limit is None or isinstance(rate_limit, RateLimiter):
            self.rate_limiter: Optional[RateLimiter] = rate_limit
        else:
            self.rate_limiter = RateLimiter(float(rate_limit))
        self._adapters: Dict[str, SourceAdapter] = {
            PHONE_TRACKER_V1.name: SourceAdapter(PHONE_TRACKER_V1)
        }
        self._devices: Dict[str, bool] = {}  # device -> True once lane known
        self.closed = False
        # Clean-path accounting (see module docstring for the invariant).
        self.submitted = 0
        self.accepted = 0
        self.rejected = 0
        self.shed = 0
        self.rate_limited = 0

    # -- configuration seams --------------------------------------------------

    def register_format(
        self,
        wire_format: WireFormat,
        *,
        crosswalk: Optional[Crosswalk] = None,
        replace: bool = False,
    ) -> SourceAdapter:
        """Teach the gateway a new wire format (+ optional crosswalk).

        Re-registering a name requires ``replace=True``.  A replacing
        adapter continues the outcome counts of the one it replaces, so
        the adapters' sums keep matching the gateway's totals.
        """
        previous = self._adapters.get(wire_format.name)
        if previous is not None and not replace:
            raise WireFormatError(
                f"wire format {wire_format.name!r} already registered;"
                f" pass replace=True to swap it"
            )
        adapter = SourceAdapter(wire_format, crosswalk=crosswalk)
        if previous is not None:
            for count in ("accepted", "rejected", "shed", "rate_limited", "replayed"):
                setattr(adapter, count, getattr(previous, count))
        self._adapters[wire_format.name] = adapter
        return adapter

    def adapter(self, name: str) -> SourceAdapter:
        """The adapter for one registered format (the crosswalk seam)."""
        try:
            return self._adapters[name]
        except KeyError:
            raise GatewayError(f"no adapter for wire format {name!r}") from None

    def set_device_policy(self, policy: DevicePolicy) -> DevicePolicy:
        """Swap the unknown-device policy; returns the previous one."""
        previous = self.device_policy
        self.device_policy = policy
        return previous

    # -- the submit path (hot, never raises on payload content) --------------

    def submit(self, payload: Any) -> str:
        """Run one raw payload through the pipeline; returns a verdict.

        ``admitted`` -- pending in the admission queue (becomes
        *accepted* when :meth:`forward` hands it to the engine);
        ``rejected`` -- dead-lettered with stage + reason;
        ``shed`` -- dead-lettered because the admission boundary was
        full.  Raises :class:`GatewayError` only when the gateway is
        closed -- payload content never raises.
        """
        if self.closed:
            raise GatewayError("gateway is closed")
        self.submitted += 1
        try:
            adapter, device, datum = self._prepare(payload)
        except _RateLimited as limited:
            # DLQ-exempt shedding: well-formed excess is counted and
            # reported, never dead-lettered (see module docstring).
            self.rate_limited += 1
            if limited.adapter is not None:
                self._adapters[limited.adapter].rate_limited += 1
            return RATE_LIMITED
        except _Reject as reject:
            return self._reject(payload, reject)
        except Exception as exc:  # containment backstop
            return self._reject(
                payload,
                _Reject("internal", f"{type(exc).__name__}: {exc}"),
            )
        # Admission: under drop_oldest the *evicted* payload is the one
        # shed, so recover it before the queue forgets it.
        admission = self.admission
        evicted = admission.evictee()
        verdict = admission.offer(datum)
        if verdict == queues.ACCEPTED:
            if evicted is not None:
                self._shed_datum(
                    evicted, "admission", "evicted by newer arrival"
                )
            return ADMITTED
        # BLOCK -> REJECTED and DROP_NEWEST -> DROPPED both shed the
        # incoming payload; shed is boundary pressure, not adapter fault,
        # so the adapter's rejected counter is left alone.
        self.shed += 1
        adapter.shed += 1
        self.dlq.push(
            self._raw_of(payload),
            "admission",
            f"admission queue full ({self.admission.policy})",
            adapter=adapter.name,
        )
        return SHED

    def submit_many(self, payloads: Any) -> Dict[str, int]:
        """Submit a burst; returns verdict counts."""
        counts = {ADMITTED: 0, REJECTED: 0, SHED: 0, RATE_LIMITED: 0}
        for payload in payloads:
            counts[self.submit(payload)] += 1
        return counts

    # -- forwarding into the engine -------------------------------------------

    def forward(self, max_items: Optional[int] = None) -> int:
        """Drain admitted payloads into their engine lanes.

        Returns how many were drained.  Lane-level backpressure verdicts
        (``dropped``/``rejected``) count as *shed*; engine errors are
        dead-lettered at the ``ingest`` stage as *rejected*.
        """
        batch = self.admission.drain(max_items)
        # Hot loop: adapter table resolved once per batch.
        adapters = self._adapters
        engine_submit = self.engine.submit
        for datum in batch:
            attributes = datum.attributes
            device = attributes["device"]
            adapter_name = attributes["format"]
            adapter = adapters.get(adapter_name)
            try:
                verdict = engine_submit(device, datum)
            except Exception as exc:
                self.rejected += 1
                if adapter is not None:
                    adapter.rejected += 1
                self.dlq.push(
                    self._raw_of(attributes.get("raw", datum.payload)),
                    "ingest",
                    f"{type(exc).__name__}: {exc}",
                    adapter=adapter_name,
                )
                continue
            if verdict in (queues.ACCEPTED, queues.COALESCED):
                self.accepted += 1
                if adapter is not None:
                    adapter.accepted += 1
            else:
                self._shed_datum(datum, "ingest", f"lane verdict {verdict}")
        return len(batch)

    # -- replay-after-fix ------------------------------------------------------

    def replay(
        self,
        seq: Optional[int] = None,
        *,
        ignore_backoff: bool = False,
    ) -> Dict[str, int]:
        """Re-run pending dead letters through the full pipeline.

        With no ``seq``, every pending record whose backoff window has
        elapsed is attempted (oldest first); with ``seq``, just that
        record (``ignore_backoff=True`` overrides its window).  Replay
        bypasses the admission queue -- a successful record goes
        straight to its engine lane and turns ``replayed``; a failed one
        backs off per the retry policy until the attempt cap parks it
        ``exhausted``.  Replays never touch the clean-path counters.
        """
        now = self._now()
        if seq is not None:
            record = self.dlq.get(seq)
            if record is None:
                raise GatewayError(f"no dead letter with seq {seq}")
            if record.state != "pending":
                raise GatewayError(
                    f"dead letter {seq} is {record.state}, not pending"
                )
            targets = [record]
            if not ignore_backoff and record.next_attempt_s > now:
                targets = []
        else:
            targets = self.dlq.due(now)
        outcome = {"attempted": 0, "replayed": 0, "failed": 0, "exhausted": 0}
        for record in targets:
            outcome["attempted"] += 1
            error = self._replay_one(record)
            if error is None:
                self.dlq.mark_replayed(record)
                outcome["replayed"] += 1
            else:
                self.dlq.mark_failed(record, error, now)
                if record.state == "exhausted":
                    outcome["exhausted"] += 1
                else:
                    outcome["failed"] += 1
        return outcome

    def _replay_one(self, record: DeadLetter) -> Optional[str]:
        """One replay attempt; returns an error string or None on success."""
        try:
            adapter, device, datum = self._prepare(record.raw, rate_limit=False)
        except _Reject as reject:
            return f"{reject.stage}: {reject.reason}"
        except Exception as exc:
            return f"internal: {type(exc).__name__}: {exc}"
        try:
            verdict = self.engine.submit(device, datum)
        except Exception as exc:
            return f"ingest: {type(exc).__name__}: {exc}"
        if verdict in (queues.ACCEPTED, queues.COALESCED):
            adapter.replayed += 1
            return None
        return f"ingest: lane verdict {verdict}"

    # -- pipeline stages -------------------------------------------------------

    def _prepare(self, payload: Any, *, rate_limit: bool = True) -> Any:
        """format -> crosswalk -> schema -> freshness -> rate limit ->
        device policy.

        Returns ``(adapter, device, datum)`` or raises :class:`_Reject`
        (:class:`_RateLimited` for an empty token bucket).  Replay
        passes ``rate_limit=False``: an operator-driven replay is not
        edge traffic.
        """
        # Exact-dict probe first: ABC isinstance is measurably slow and
        # raw JSON traffic is dicts, Mapping is the slow-path courtesy.
        if type(payload) is not dict and not isinstance(payload, Mapping):
            raise _Reject(
                "format",
                f"payload must be a mapping, got {type(payload).__name__}",
            )
        format_name = payload.get(FORMAT_FIELD)
        adapter = (
            self._adapters.get(format_name) if isinstance(format_name, str) else None
        )
        if adapter is None:
            raise _Reject(
                "format", f"unknown {FORMAT_FIELD} {format_name!r}"
            )
        wire = adapter.wire_format
        try:
            normalized = adapter.normalize(payload)
        except CrosswalkError as exc:
            raise _Reject("crosswalk", str(exc), adapter.name) from None
        errors = wire.validate(normalized)
        if errors:
            raise _Reject("schema", "; ".join(errors), adapter.name)
        timestamp = wire.timestamp_of(normalized)
        if self.max_age_s is not None or self.max_future_s is not None:
            now = self._now()
            if self.max_age_s is not None and now - timestamp > self.max_age_s:
                raise _Reject(
                    "freshness",
                    f"stale: {now - timestamp:.3f}s old"
                    f" (max_age_s={self.max_age_s})",
                    adapter.name,
                )
            if (
                self.max_future_s is not None
                and timestamp - now > self.max_future_s
            ):
                raise _Reject(
                    "freshness",
                    f"future: {timestamp - now:.3f}s ahead"
                    f" (max_future_s={self.max_future_s})",
                    adapter.name,
                )
        device = wire.device_of(normalized)
        if device is None:
            raise _Reject(
                "policy",
                f"payload names no device id ({wire.device_field!r})",
                adapter.name,
            )
        limiter = self.rate_limiter
        if (
            rate_limit
            and limiter is not None
            and not limiter.allow(adapter.name, device, self._now())
        ):
            raise _RateLimited(
                "rate_limit",
                f"device {device!r} over {limiter.rate:g}/s"
                f" (burst {limiter.burst:g})",
                adapter.name,
            )
        if device not in self._devices:
            if not self.engine.is_tracked(device):
                lane_kwargs = self.device_policy.admit(
                    device, normalized, len(self._devices)
                )
                if lane_kwargs is None:
                    raise _Reject(
                        "policy",
                        f"device {device!r} not admitted by"
                        f" {type(self.device_policy).__name__}",
                        adapter.name,
                    )
                self.engine.track(device, self.source, **lane_kwargs)
            self._devices[device] = True
        # Inline _raw_of: payload is known to be a mapping by now.
        raw = payload if type(payload) is dict else dict(payload)
        datum = adapter.datum_of(normalized, device, timestamp, raw=raw)
        return adapter, device, datum

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _raw_of(payload: Any) -> Dict[str, Any]:
        """The payload as the DLQ stores it (a real dict, patchable)."""
        if type(payload) is dict:
            return payload
        if isinstance(payload, Mapping):
            return dict(payload)
        return {"payload": payload}

    def _reject(self, payload: Any, reject: _Reject) -> str:
        self.rejected += 1
        if reject.adapter is not None:
            adapter = self._adapters.get(reject.adapter)
            if adapter is not None:
                adapter.rejected += 1
        self.dlq.push(
            self._raw_of(payload),
            reject.stage,
            reject.reason,
            adapter=reject.adapter,
        )
        return REJECTED

    def _shed_datum(self, datum: Any, stage: str, reason: str) -> None:
        """Dead-letter a previously-admitted datum as shed."""
        self.shed += 1
        adapter_name = datum.attributes.get("format", "-")
        adapter = self._adapters.get(adapter_name)
        if adapter is not None:
            adapter.shed += 1
        self.dlq.push(
            self._raw_of(datum.attributes.get("raw", datum.payload)),
            stage,
            reason,
            adapter=adapter_name,
        )

    # -- inspection ------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Payloads admitted but not yet forwarded."""
        return self.admission.depth

    def dead_letters(self, state: Optional[str] = None) -> List[Dict[str, Any]]:
        """Inspection summaries of retained DLQ records."""
        return [record.summary() for record in self.dlq.records(state)]

    def snapshot(self) -> Dict[str, Any]:
        """Reflective summary -- what PSL ``describe`` and the report use."""
        return {
            "source": self.source,
            "closed": self.closed,
            "formats": sorted(self._adapters),
            "adapters": {
                name: adapter.describe()
                for name, adapter in sorted(self._adapters.items())
            },
            "device_policy": self.device_policy.describe(),
            "devices": len(self._devices),
            "submitted": self.submitted,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "shed": self.shed,
            "rate_limited": self.rate_limited,
            "pending": self.admission.depth,
            "admission": self.admission.stats(),
            "rate_limit": (
                self.rate_limiter.describe()
                if self.rate_limiter is not None
                else None
            ),
            "dlq": self.dlq.stats(),
            "freshness": {
                "max_age_s": self.max_age_s,
                "max_future_s": self.max_future_s,
            },
        }

    def render(self, snapshot: Dict[str, Any]) -> List[str]:
        """The report's ``gateway:`` lines for a :meth:`snapshot`."""
        lines: List[str] = []
        lines.append(
            f"  source={snapshot['source']},"
            f" formats={snapshot['formats']},"
            f" policy={snapshot['device_policy']['policy']},"
            f" devices={snapshot['devices']}"
        )
        lines.append(
            f"  submitted={snapshot['submitted']},"
            f" accepted={snapshot['accepted']},"
            f" rejected={snapshot['rejected']},"
            f" shed={snapshot['shed']},"
            f" rate_limited={snapshot['rate_limited']},"
            f" pending={snapshot['pending']}"
        )
        limiter = snapshot["rate_limit"]
        if limiter is not None:
            lines.append(
                f"  rate limit: {fmt(limiter['rate'])}/s"
                f" (burst {fmt(limiter['burst'])}),"
                f" devices={limiter['keys']},"
                f" allowed={limiter['allowed']},"
                f" limited={limiter['limited']}"
            )
        dlq = snapshot["dlq"]
        lines.append(
            f"  dlq: depth={dlq['depth']}/{dlq['capacity']}"
            f" (evicted={dlq['evicted']}),"
            f" replayed={dlq['total_replayed']},"
            f" exhausted={dlq['total_exhausted']}"
        )
        for stage, count in dlq["by_stage"].items():
            lines.append(f"    {stage}: {count}")
        return lines

    def close(self) -> None:
        """Stop accepting traffic (pending/DLQ stay inspectable)."""
        self.closed = True

    def __repr__(self) -> str:
        return (
            f"IngestionGateway(source={self.source!r},"
            f" formats={sorted(self._adapters)},"
            f" submitted={self.submitted}, dlq={len(self.dlq)})"
        )

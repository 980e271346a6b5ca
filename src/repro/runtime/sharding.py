"""Sharded multi-worker runtime: N engine shards behind one coordinator.

One :class:`~repro.runtime.engine.PositioningEngine` multiplexes many
targets over one graph in one interpreter; ``BENCH_scale.json`` shows
where that ceiling sits.  This module breaks it the middleware way: the
tracked-target population is *partitioned* across N independent engine
shards -- each shard owns a private processing graph built from a shared
**assembly recipe** -- and a :class:`ShardedEngine` coordinator fans
ingestion out, drives drain rounds, and merges every reflective surface
(metrics, component health, ingestion lanes, report snapshots) back into
one queryable facade, the coordinator/facade split of middleware-dt
(SNIPPETS.md Snippet 1).

Separations that matter:

* **Placement is policy, not code** (RAFDA): which shard owns a target
  is decided by a :class:`~repro.runtime.placement.PlacementPolicy`
  object -- consistent hashing by default, explicit pins as overrides --
  never by component logic or the coordinator itself.
* **Shards share a recipe, not a graph**: the recipe (any zero-argument
  callable returning a :class:`~repro.core.graph.ProcessingGraph` or an
  :class:`~repro.core.assembly.AutoAssembler`) is invoked once per
  shard, so shards are structural twins with fully independent state --
  no cross-shard locking, no shared mutable anything.
* **Failures stay inside their shard**: an exception escaping a shard's
  drain (a crashing component, an exhausted ``drain_all``) marks that
  shard *degraded* and is recorded; surviving shards keep draining and
  every merged surface stays renderable.  ``restore_shard`` readmits a
  healed shard.

Two executors run one shard body, :class:`InProcessShard`, whose
:data:`SHARD_OPS` methods are the whole shard protocol:

``inprocess``
    Deterministic, simulated-clock, tier-1 testable.  Shards drain
    sequentially in shard order, so a run is bit-identical to a
    single-engine run partitioned the same way (the property pinned by
    ``tests/test_property_sharding.py``).
``multiprocessing``
    Real parallelism: each worker process builds the shard from the same
    recipe (which must therefore be picklable) and drains concurrently;
    :class:`ProcessShard` forwards each protocol call over a pipe.
    Gated by the E13 benchmark (``benchmarks/bench_shard_runtime.py``).
"""

from __future__ import annotations

import multiprocessing
import time as _time
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.assembly import AutoAssembler
from repro.core.data import Datum
from repro.core.graph import ProcessingGraph
from repro.observability.instrumentation import ObservabilityHub
from repro.observability.metrics import (
    MetricsRegistry,
    merge_component_stats,
    merge_snapshots,
)
from repro.runtime.engine import PositioningEngine
from repro.runtime.placement import (
    ConsistentHashPlacement,
    PinnedPlacement,
    PlacementPolicy,
)
from repro.runtime.queues import DROP_OLDEST
from repro.runtime.scheduler import (
    FairScheduler,
    RoundRobinScheduler,
    WeightedScheduler,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.clock import SimulationClock
    from repro.robustness.supervision import SupervisionPolicy

#: Shard health states reported by the coordinator.
SHARD_HEALTHY = "healthy"
SHARD_DEGRADED = "degraded"

#: Executor mode names accepted by :class:`ShardedEngine`.
IN_PROCESS = "inprocess"
MULTIPROCESSING = "multiprocessing"
EXECUTORS = (IN_PROCESS, MULTIPROCESSING)

#: A graph recipe: builds one shard's private graph (or assembler).
GraphRecipe = Callable[[], Union[ProcessingGraph, AutoAssembler]]

#: Scheduler specification: ``None`` (round-robin default), a
#: ``("round_robin" | "weighted", quantum)`` tuple (picklable, required
#: for worker processes), or a zero-argument factory callable.
SchedulerSpec = Union[None, Tuple[str, int], Callable[[], FairScheduler]]

#: Breaker-health severity order used by the cross-shard health merge.
_HEALTH_SEVERITY = {"closed": 0, "half-open": 1, "open": 2}


class ShardingError(Exception):
    """Raised on invalid sharded-engine configuration or use."""


class ShardRemoteError(ShardingError):
    """An operation failed inside a worker-process shard.

    Carries the remote ``"ExceptionType: message"`` string; the remote
    traceback stays in the worker, the failure record in the
    coordinator.
    """


def build_scheduler(spec: SchedulerSpec) -> FairScheduler:
    """Materialise one shard's scheduler from its specification."""
    if spec is None:
        return RoundRobinScheduler()
    if callable(spec):
        scheduler = spec()
        if not isinstance(scheduler, FairScheduler):
            raise ShardingError(
                f"scheduler factory returned {type(scheduler).__name__},"
                " not a FairScheduler"
            )
        return scheduler
    kind, quantum = spec
    if kind == "round_robin":
        return RoundRobinScheduler(quantum)
    if kind == "weighted":
        return WeightedScheduler(quantum)
    raise ShardingError(
        f"unknown scheduler kind {kind!r};"
        " expected 'round_robin' or 'weighted'"
    )


def materialise_graph(recipe: GraphRecipe) -> ProcessingGraph:
    """Run the shared assembly recipe for one shard."""
    built = recipe()
    if isinstance(built, AutoAssembler):
        built = built.graph
    if not isinstance(built, ProcessingGraph):
        raise ShardingError(
            f"recipe must build a ProcessingGraph or AutoAssembler,"
            f" got {type(built).__name__}"
        )
    return built


#: The shard protocol: the :class:`InProcessShard` methods a worker
#: process serves and :class:`ProcessShard` forwards over its pipe.
SHARD_OPS = (
    "track",
    "untrack",
    "submit",
    "submit_many",
    "set_policy",
    "drain_round",
    "drain_all",
    "export_lane",
    "install_lane",
    "snapshot",
    "lane_counters",
    "component_health",
    "component_stats",
    "metrics_snapshot",
    "sink_outputs",
)


class _ShardBase:
    """One shard's health state as the coordinator sees it."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.status = SHARD_HEALTHY
        self.error: Optional[str] = None

    @property
    def healthy(self) -> bool:
        return self.status == SHARD_HEALTHY

    def mark_degraded(self, error: str) -> None:
        self.status = SHARD_DEGRADED
        self.error = error

    def restore(self) -> None:
        self.status = SHARD_HEALTHY
        self.error = None

    def close(self) -> None:
        """Release executor resources; no-op for in-process shards."""


class InProcessShard(_ShardBase):
    """The shard body: one private graph, engine, hub and supervisor.

    Under the in-process executor it lives in the coordinator's
    interpreter: fully deterministic (drains run synchronously in shard
    order) and fully transparent -- tests and operators can reach
    ``graph``, ``engine``, ``hub`` and ``supervisor`` directly, so the
    translucency story survives sharding in this mode.  Under the
    multiprocessing executor a worker process builds one and serves its
    :data:`SHARD_OPS` methods over a pipe.
    """

    mode = IN_PROCESS

    def __init__(
        self,
        shard_id: int,
        recipe: GraphRecipe,
        scheduler_spec: SchedulerSpec,
        *,
        stamp_targets: bool = True,
        observability: bool = False,
        supervision: Optional["SupervisionPolicy"] = None,
    ) -> None:
        super().__init__(shard_id)
        self.graph = materialise_graph(recipe)
        self.hub: Optional[ObservabilityHub] = None
        if observability:
            self.hub = ObservabilityHub(MetricsRegistry(), tracing=False)
            self.graph.set_instrumentation(self.hub)
        if supervision is not None:
            from repro.robustness.supervision import Supervisor

            self.graph.set_supervisor(Supervisor(supervision))
        self.engine = PositioningEngine(
            self.graph,
            scheduler=build_scheduler(scheduler_spec),
            stamp_targets=stamp_targets,
        )
        self._pending: Optional[Tuple[Optional[int], Optional[BaseException]]] = None

    def track(self, target_id: str, source: str, **kwargs: Any) -> None:
        self.engine.track(target_id, source, **kwargs)

    def untrack(self, target_id: str) -> None:
        self.engine.untrack(target_id)

    def submit(self, target_id: str, datum: Datum) -> str:
        return self.engine.submit(target_id, datum)

    def submit_many(self, items: List[Tuple[str, Datum]]) -> Dict[str, int]:
        verdicts: Dict[str, int] = {}
        submit = self.engine.submit
        for target_id, datum in items:
            verdict = submit(target_id, datum)
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
        return verdicts

    def set_policy(self, target_id: str, **kwargs: Any) -> Dict[str, Any]:
        return self.engine.set_policy(target_id, **kwargs)

    def drain_round(self) -> int:
        return self.engine.drain_round()

    def drain_all(self, max_rounds: int) -> int:
        return self.engine.drain_all(max_rounds)

    def begin_drain(self, op: str, max_rounds: int) -> None:
        # Synchronous by design: sequential shard order is what makes
        # the in-process mode deterministic.  The error is captured so
        # finish_drain raises it exactly where the coordinator's
        # containment logic expects, mirroring the worker protocol.
        try:
            if op == "round":
                self._pending = (self.drain_round(), None)
            else:
                self._pending = (self.drain_all(max_rounds), None)
        except BaseException as exc:  # noqa: BLE001 - re-raised in finish_drain
            self._pending = (None, exc)

    def finish_drain(self) -> int:
        if self._pending is None:
            raise ShardingError("no drain in flight")
        drained, error = self._pending
        self._pending = None
        if error is not None:
            raise error
        assert drained is not None
        return drained

    def export_lane(self, target_id: str) -> Dict[str, Any]:
        return self.engine.export_lane(target_id)

    def install_lane(self, payload: Dict[str, Any]) -> None:
        self.engine.install_lane(payload)

    def snapshot(self) -> Dict[str, Any]:
        return self.engine.snapshot()

    def lane_counters(self) -> Dict[str, Dict[str, int]]:
        return self.engine.lane_counters()

    def component_health(self) -> Dict[str, str]:
        supervisor = self.graph.supervisor
        return supervisor.health_states() if supervisor is not None else {}

    def component_stats(self) -> Dict[str, Dict[str, Any]]:
        return self.hub.component_stats() if self.hub is not None else {}

    def metrics_snapshot(self) -> Dict[str, Dict[str, Any]]:
        return self.hub.registry.snapshot() if self.hub is not None else {}

    def sink_outputs(self) -> List[Tuple[str, str, Any, Any]]:
        """Every datum held by the graph's ApplicationSinks, as plain tuples.

        ``(sink, kind, payload, target)`` rows -- picklable, so workers can
        ship them to the coordinator for equivalence checks and demos.
        """
        from repro.core.component import ApplicationSink

        rows: List[Tuple[str, str, Any, Any]] = []
        for component in self.graph.components():
            if isinstance(component, ApplicationSink):
                rows.extend(
                    (
                        component.name,
                        datum.kind,
                        datum.payload,
                        datum.attributes.get("target"),
                    )
                    for datum in component.received
                )
        return rows


def _shard_worker(
    conn: Any,
    shard_id: int,
    recipe: GraphRecipe,
    scheduler_spec: SchedulerSpec,
    stamp_targets: bool,
    observability: bool,
    supervision: Optional["SupervisionPolicy"],
) -> None:
    """Worker-process loop: one :class:`InProcessShard` served over a pipe.

    Each ``(op, args, kwargs)`` request names a :data:`SHARD_OPS` method
    and is answered with ``("ok", result)`` or ``("error", "Type:
    message")`` -- exceptions (an unknown op included) never kill the
    worker, so a shard that failed a drain still answers snapshot/health
    requests, which is what keeps degraded shards inspectable.
    """
    try:
        shard = InProcessShard(
            shard_id,
            recipe,
            scheduler_spec,
            stamp_targets=stamp_targets,
            observability=observability,
            supervision=supervision,
        )
    except Exception as exc:  # noqa: BLE001 - reported to the coordinator
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
        conn.close()
        return
    conn.send(("ok", shard_id))
    while True:
        try:
            op, args, kwargs = conn.recv()
        except EOFError:
            break
        if op == "stop":
            conn.send(("ok", None))
            break
        try:
            if op not in SHARD_OPS:
                raise ShardingError(f"unknown shard op {op!r}")
            conn.send(("ok", getattr(shard, op)(*args, **kwargs)))
        except Exception as exc:  # noqa: BLE001 - protocol error channel
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
    conn.close()


class ProcessShard(_ShardBase):
    """The pipe transport to an :class:`InProcessShard` in a worker process.

    The recipe, scheduler spec and supervision policy cross the process
    boundary once at startup (they must be picklable -- module-level
    recipes, tuple scheduler specs); afterwards only datums and plain
    dicts travel.  Every :data:`SHARD_OPS` name is forwarded as one
    request/response round-trip.  ``begin_drain`` / ``finish_drain``
    split that round-trip so the coordinator can have *every* worker
    draining before it blocks on the first result -- that split is where
    the parallel speedup lives.
    """

    mode = MULTIPROCESSING

    def __init__(
        self,
        shard_id: int,
        recipe: GraphRecipe,
        scheduler_spec: SchedulerSpec,
        *,
        stamp_targets: bool = True,
        observability: bool = False,
        supervision: Optional["SupervisionPolicy"] = None,
        mp_context: Optional[Any] = None,
    ) -> None:
        super().__init__(shard_id)
        ctx = mp_context or multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe()
        self._conn = parent_conn
        self._process = ctx.Process(
            target=_shard_worker,
            args=(
                child_conn,
                shard_id,
                recipe,
                scheduler_spec,
                stamp_targets,
                observability,
                supervision,
            ),
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self._in_flight = False
        self._collect()  # the ready handshake (or the build error)

    # -- protocol ----------------------------------------------------------

    def _cast(self, op: str, *args: Any, **kwargs: Any) -> None:
        # A dead worker must surface as ShardRemoteError, never as a raw
        # BrokenPipeError: the coordinator's containment logic keys off
        # the former, and pipe writes to a crashed child can otherwise
        # succeed once before failing.
        if not self._process.is_alive():
            raise ShardRemoteError(
                f"shard {self.shard_id} worker process is dead"
                f" (exitcode {self._process.exitcode})"
            )
        try:
            self._conn.send((op, args, kwargs))
        except OSError as exc:
            raise ShardRemoteError(
                f"shard {self.shard_id} worker pipe broken: {exc}"
            ) from None
        self._in_flight = True

    def _collect(self) -> Any:
        self._in_flight = False
        try:
            status, payload = self._conn.recv()
        except (EOFError, OSError):
            raise ShardRemoteError(
                f"shard {self.shard_id} worker exited unexpectedly"
            ) from None
        if status == "ok":
            return payload
        raise ShardRemoteError(payload)

    def _call(self, op: str, *args: Any, **kwargs: Any) -> Any:
        self._cast(op, *args, **kwargs)
        return self._collect()

    def __getattr__(self, op: str) -> Callable[..., Any]:
        # Only reached for names that are not real attributes: the shard
        # protocol, one pipe round-trip per call.
        if op not in SHARD_OPS:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {op!r}"
            )
        return partial(self._call, op)

    def begin_drain(self, op: str, max_rounds: int) -> None:
        if op == "round":
            self._cast("drain_round")
        else:
            self._cast("drain_all", max_rounds)

    def finish_drain(self) -> int:
        return self._collect()

    def close(self) -> None:
        if self._process.is_alive():
            try:
                if self._in_flight and self._conn.poll(1.0):
                    # The coordinator abandoned a begun drain; collect
                    # (and discard) its response so the pipe protocol is
                    # back in sync and the worker can take the stop.
                    try:
                        self._collect()
                    except ShardRemoteError:
                        pass
                if not self._in_flight:
                    self._call("stop")
            except (ShardRemoteError, OSError):
                pass
            self._process.join(timeout=5)
            if self._process.is_alive():  # pragma: no cover - defensive
                self._process.terminate()
                self._process.join(timeout=5)
        self._conn.close()


#: A shard handle as the coordinator holds it: the body or its transport.
Shard = Union[InProcessShard, ProcessShard]


class ShardedEngine:
    """Coordinator over N engine shards: fan-out in, merged surfaces out.

    Parameters
    ----------
    recipe:
        Shared assembly recipe; invoked once per shard to build that
        shard's private graph.  Must be picklable under the
        ``multiprocessing`` executor.
    shards:
        Number of engine shards (>= 1).
    placement:
        The :class:`~repro.runtime.placement.PlacementPolicy` deciding
        target ownership; consistent hashing by default.  Per-call
        ``track(..., shard=i)`` pins override the policy for one target.
    executor:
        ``"inprocess"`` (deterministic, tier-1 testable) or
        ``"multiprocessing"`` (parallel worker processes).
    clock:
        Optional simulation clock for :meth:`start`'s periodic rounds.
    scheduler:
        Per-shard scheduler spec (see :data:`SchedulerSpec`); every
        shard gets its own instance, so cursors never alias.
    observability:
        Give each shard its own metrics-only
        :class:`~repro.observability.instrumentation.ObservabilityHub`;
        :meth:`merged_component_stats` / :meth:`merged_metrics` roll the
        per-shard registries up.
    supervision:
        Optional :class:`~repro.robustness.supervision
        .SupervisionPolicy`; each shard gets its own Supervisor, so
        breakers and failure rings stay shard-local (failure
        containment *within* a shard, on top of the coordinator's
        containment *between* shards).
    """

    def __init__(
        self,
        recipe: GraphRecipe,
        shards: int,
        *,
        placement: Optional[PlacementPolicy] = None,
        executor: str = IN_PROCESS,
        clock: Optional["SimulationClock"] = None,
        scheduler: SchedulerSpec = None,
        stamp_targets: bool = True,
        observability: bool = False,
        supervision: Optional["SupervisionPolicy"] = None,
        mp_context: Optional[Any] = None,
        failure_limit: int = 64,
    ) -> None:
        if shards < 1:
            raise ShardingError("shards must be >= 1")
        if executor not in EXECUTORS:
            raise ShardingError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self.recipe = recipe
        self.executor = executor
        self.placement = placement or ConsistentHashPlacement()
        self.clock = clock
        self._cancel: Optional[Callable[[], None]] = None
        self._assignments: Dict[str, int] = {}
        self.rounds = 0
        self.drained_total = 0
        self._failure_limit = failure_limit
        self._failures: List[Dict[str, Any]] = []
        self._migrations: List[Dict[str, Any]] = []
        #: Completed warm handoffs, uncapped; ``_migrations`` keeps only
        #: the last ``failure_limit`` records.
        self.migrations_total = 0
        make_shard: Callable[..., Shard] = InProcessShard
        if executor == MULTIPROCESSING:
            make_shard = partial(ProcessShard, mp_context=mp_context)
        self._shards: List[Shard] = []
        try:
            for shard_id in range(shards):
                self._shards.append(
                    make_shard(
                        shard_id,
                        recipe,
                        scheduler,
                        stamp_targets=stamp_targets,
                        observability=observability,
                        supervision=supervision,
                    )
                )
        except BaseException:
            self.close()
            raise

    # -- context management -------------------------------------------------

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Stop periodic draining and release every shard's resources."""
        self.stop()
        for shard in self._shards:
            shard.close()

    # -- shard access --------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard(self, shard_id: int) -> Shard:
        """One shard's handle (the live in-process shard, or the proxy)."""
        try:
            return self._shards[shard_id]
        except IndexError:
            raise ShardingError(f"no shard {shard_id}") from None

    def shards(self) -> List[Shard]:
        """All shard handles, in shard-id order."""
        return list(self._shards)

    def degraded(self) -> List[int]:
        """Ids of shards currently marked degraded."""
        return [s.shard_id for s in self._shards if not s.healthy]

    def restore_shard(self, shard_id: int) -> None:
        """Readmit a degraded shard to drain rounds (after healing it)."""
        self.shard(shard_id).restore()

    def failures(self) -> List[Dict[str, Any]]:
        """Bounded ring of contained shard failures (newest last)."""
        return list(self._failures)

    # -- placement + lane management -----------------------------------------

    def shard_of(self, target_id: str) -> int:
        """The shard owning a tracked target."""
        try:
            return self._assignments[target_id]
        except KeyError:
            raise ShardingError(f"no tracked target {target_id!r}") from None

    def assignments(self) -> Dict[str, int]:
        """Current target -> shard map (a copy)."""
        return dict(self._assignments)

    def track(
        self,
        target_id: str,
        source: str,
        *,
        capacity: int = 64,
        policy: str = DROP_OLDEST,
        weight: int = 1,
        shard: Optional[int] = None,
    ) -> int:
        """Place and track a target; returns the owning shard id.

        Placement comes from the policy object unless ``shard`` pins
        this target explicitly (the per-call override; persistent pin
        tables belong in a
        :class:`~repro.runtime.placement.PinnedPlacement`).
        """
        if target_id in self._assignments:
            raise ShardingError(f"target {target_id!r} already tracked")
        if shard is None:
            shard = self.placement.place(target_id, len(self._shards))
        if not 0 <= shard < len(self._shards):
            raise ShardingError(
                f"placement put {target_id!r} on shard {shard}, but only"
                f" {len(self._shards)} shards exist"
            )
        self._shards[shard].track(
            target_id,
            source,
            capacity=capacity,
            policy=policy,
            weight=weight,
        )
        self._assignments[target_id] = shard
        return shard

    def untrack(self, target_id: str) -> int:
        """Stop tracking a target; returns the shard that owned it."""
        shard = self.shard_of(target_id)
        self._shards[shard].untrack(target_id)
        del self._assignments[target_id]
        return shard

    def is_tracked(self, target_id: str) -> bool:
        """Whether any shard owns a lane for ``target_id`` (no-raise).

        Mirrors :meth:`PositioningEngine.is_tracked` so the ingestion
        gateway can sit in front of either engine unchanged.
        """
        return target_id in self._assignments

    def set_policy(self, target_id: str, **kwargs: Any) -> Dict[str, Any]:
        """Adapt one lane's backpressure/fairness knobs, wherever it lives."""
        return self._shards[self.shard_of(target_id)].set_policy(target_id, **kwargs)

    # -- warm handoff (live migration between shards) --------------------------

    def migrate_target(self, target_id: str, to_shard: int) -> Dict[str, Any]:
        """Relocate a live lane to ``to_shard`` with zero datum loss.

        The handoff protocol:

        1. **Barrier**: the lane is exported from its owning shard --
           export *removes* it there, so no submit or drain can touch
           it mid-flight (the coordinator is single-threaded, so the
           removal is atomic with respect to both).
        2. **Snapshot travels**: the export payload carries the lane's
           configuration, counters, and every pending datum.
        3. **Install**: the destination shard rebuilds the lane, state
           intact.  If the install raises, the lane is reinstalled on
           the source shard and the error propagates -- the target is
           never left untracked.
        4. **Repoint**: the assignment map flips and the placement
           policy is wrapped in a
           :class:`~repro.runtime.placement.PinnedPlacement` (if it is
           not one already) pinning the target to its new home, so
           policy-driven re-placement respects the migration.

        Returns the migration record: ``{"target", "from", "to",
        "datums", "pause_s"}``, where ``pause_s`` is the wall-clock
        window in which the lane accepted no traffic.
        """
        from_shard = self.shard_of(target_id)
        if not 0 <= to_shard < len(self._shards):
            raise ShardingError(
                f"no shard {to_shard}; only {len(self._shards)} shards exist"
            )
        if to_shard == from_shard:
            raise ShardingError(
                f"target {target_id!r} already lives on shard {to_shard}"
            )
        source = self._shards[from_shard]
        destination = self._shards[to_shard]
        if not destination.healthy:
            raise ShardingError(
                f"destination shard {to_shard} is degraded"
                f" ({destination.error})"
            )
        started = _time.perf_counter()
        payload = source.export_lane(target_id)
        try:
            destination.install_lane(payload)
        except Exception:
            # Roll the lane back onto its source shard: a failed
            # migration must never strand the target untracked.
            source.install_lane(payload)
            raise
        self._assignments[target_id] = to_shard
        if not isinstance(self.placement, PinnedPlacement):
            self.placement = PinnedPlacement(base=self.placement)
        self.placement.pin(target_id, to_shard)
        pause_s = _time.perf_counter() - started
        record = {
            "target": target_id,
            "from": from_shard,
            "to": to_shard,
            "datums": len(payload["queue"]["items"]),
            "pause_s": pause_s,
        }
        self.migrations_total += 1
        self._migrations.append(record)
        if len(self._migrations) > self._failure_limit:
            del self._migrations[: len(self._migrations) - self._failure_limit]
        return record

    def migrations(self) -> List[Dict[str, Any]]:
        """Bounded history of completed warm handoffs (newest last).

        The one record of every handoff: ``psl.migrations()`` and the
        report read it here, durability or not.
        """
        return [dict(record) for record in self._migrations]

    def rebalance(
        self,
        placement: Optional[PlacementPolicy] = None,
        *,
        max_moves: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Placement-policy-driven :meth:`migrate_target` sweep.

        Placement was static per target until now: a target's shard was
        decided at :meth:`track` time and never revisited, so a hot
        shard stayed hot.  This hook re-places every tracked target
        under ``placement`` (default: the current policy -- useful
        after pins changed) and warm-migrates each target whose desired
        shard differs from its current one, in sorted target order
        (deterministic).  Targets whose destination shard is degraded
        are skipped, not failed: rebalancing is best-effort shedding,
        and a later sweep can finish the job.

        ``max_moves`` bounds the sweep (controllers shedding a hot
        shard mid-run want a few moves per round, not a stop-the-world
        reshuffle).  Returns the migration records of the moves made.

        When ``placement`` is given it becomes the engine's policy;
        each completed move then pins its target via the
        :class:`~repro.runtime.placement.PinnedPlacement` wrap that
        :meth:`migrate_target` maintains, so the sweep's outcome
        survives later policy-driven placement.
        """
        policy = placement if placement is not None else self.placement
        if placement is not None:
            self.placement = placement
        moves: List[Dict[str, Any]] = []
        shard_count = len(self._shards)
        for target_id in sorted(self._assignments):
            current = self._assignments[target_id]
            desired = policy.place(target_id, shard_count)
            if not 0 <= desired < shard_count:
                raise ShardingError(
                    f"placement put {target_id!r} on shard {desired}, but"
                    f" only {shard_count} shards exist"
                )
            if desired == current or not self._shards[desired].healthy:
                continue
            moves.append(self.migrate_target(target_id, desired))
            if max_moves is not None and len(moves) >= max_moves:
                break
        return moves

    # -- ingestion (producer side) -------------------------------------------

    def submit(self, target_id: str, datum: Datum) -> str:
        """Queue one datum on its owning shard; returns the lane verdict."""
        return self._shards[self.shard_of(target_id)].submit(target_id, datum)

    def submit_batch(self, items: Iterable[Tuple[str, Datum]]) -> Dict[str, int]:
        """Fan a mixed batch out to owning shards; returns verdict counts.

        Items are grouped per shard and cross the shard boundary in one
        call each -- under the multiprocessing executor that is one pipe
        message per shard instead of one per datum.
        """
        by_shard: Dict[int, List[Tuple[str, Datum]]] = {}
        for target_id, datum in items:
            by_shard.setdefault(self.shard_of(target_id), []).append((target_id, datum))
        totals: Dict[str, int] = {}
        for shard_id, group in by_shard.items():
            for verdict, count in self._shards[shard_id].submit_many(group).items():
                totals[verdict] = totals.get(verdict, 0) + count
        return totals

    # -- draining (the coordinator's round) ------------------------------------

    def _drain(self, op: str, max_rounds: int) -> int:
        active = [s for s in self._shards if s.healthy]
        if not active:
            raise ShardingError(
                "no healthy shards left"
                f" (degraded: {self.degraded()})"
            )
        # begin_drain can itself fail (a worker that died while idle is
        # the realistic crash mode), so it gets the same containment as
        # finish_drain -- and only shards whose begin succeeded are
        # collected, keeping the pipe protocol in sync for survivors.
        started: List[Shard] = []
        for shard in active:
            try:
                shard.begin_drain(op, max_rounds)
            except Exception as exc:  # noqa: BLE001 - per-shard containment
                self._record_failure(shard, op, exc)
            else:
                started.append(shard)
        total = 0
        for shard in started:
            try:
                total += shard.finish_drain()
            except Exception as exc:  # noqa: BLE001 - per-shard containment
                self._record_failure(shard, op, exc)
        self.rounds += 1
        self.drained_total += total
        return total

    def _record_failure(self, shard: Shard, op: str, exc: BaseException) -> None:
        message = (
            str(exc)
            if isinstance(exc, ShardRemoteError)
            else f"{type(exc).__name__}: {exc}"
        )
        shard.mark_degraded(message)
        self._failures.append(
            {
                "shard": shard.shard_id,
                "op": op,
                "round": self.rounds,
                "error": message,
            }
        )
        if len(self._failures) > self._failure_limit:
            del self._failures[: len(self._failures) - self._failure_limit]

    def drain_round(self) -> int:
        """One drain round across all healthy shards; returns datums routed.

        Shards run in shard-id order under the in-process executor
        (deterministic) and concurrently under multiprocessing.  A shard
        whose drain raises is marked degraded and recorded; the round
        continues on the survivors.
        """
        return self._drain("round", 1)

    def drain_all(self, max_rounds: int = 1000) -> int:
        """Drain every healthy shard to quiescence; returns datums routed.

        Per-shard truncation (an engine exhausting ``max_rounds`` with
        datums pending) is *not* quiescence: the shard is marked
        degraded with the truncation error and its engine snapshot
        keeps ``last_drain_truncated`` set, so the merged snapshot's
        ``truncated`` list names it even though surviving shards
        finished cleanly.
        """
        return self._drain("all", max_rounds)

    def start(self, interval_s: float) -> Callable[[], None]:
        """Drain one round every ``interval_s`` simulated seconds."""
        if self.clock is None:
            raise ShardingError("engine has no clock; pass one to start()")
        if interval_s <= 0:
            raise ShardingError("interval must be positive")
        self.stop()
        self._cancel = self.clock.call_every(
            interval_s, lambda _now: self.drain_round()
        )
        return self._cancel

    def stop(self) -> None:
        """Cancel the periodic drain schedule, if one is running."""
        if self._cancel is not None:
            self._cancel()
            self._cancel = None

    # -- merged surfaces (the facade) ------------------------------------------

    def _per_shard(self, call: Callable[[Shard], Any], fallback: Any) -> List[Any]:
        """Apply ``call`` to every shard, degrading instead of raising."""
        results = []
        for shard in self._shards:
            try:
                results.append(call(shard))
            except Exception as exc:  # noqa: BLE001 - keep surfaces total
                self._record_failure(shard, "inspect", exc)
                results.append(fallback)
        return results

    def ingestion_lanes(self) -> Dict[str, Dict[str, Any]]:
        """Every tracked target's lane stats, annotated with its shard.

        The sharded twin of ``psl.ingestion_lanes()``: one merged map
        regardless of where each lane physically lives.
        """
        merged: Dict[str, Dict[str, Any]] = {}
        for shard, snap in zip(
            self._shards, self._per_shard(lambda s: s.snapshot(), {})
        ):
            for target_id, stats in snap.get("lanes", {}).items():
                stats = dict(stats)
                stats["shard"] = shard.shard_id
                merged[target_id] = stats
        return merged

    def lane_counters(self) -> Dict[str, Dict[str, int]]:
        """Every tracked target's lane counters, annotated with its shard.

        The narrow twin of :meth:`ingestion_lanes` that a per-tick
        control view reads: one :meth:`PositioningEngine.lane_counters`
        record per target, plus ``shard``, from one ``lane_counters``
        call per shard instead of a full ``snapshot``.
        """
        merged: Dict[str, Dict[str, int]] = {}
        for shard, counters in zip(
            self._shards, self._per_shard(lambda s: s.lane_counters(), {})
        ):
            shard_id = shard.shard_id
            for record in counters.values():
                record["shard"] = shard_id
            merged.update(counters)
        return merged

    def component_health(self) -> Dict[str, str]:
        """Worst-of breaker health per component name, across shards.

        Shards are structural twins, so component names line up; a
        component ``open`` on any shard reports ``open`` here.  Per
        shard detail lives in :meth:`snapshot`.
        """
        merged: Dict[str, str] = {}
        for states in self._per_shard(lambda s: s.component_health(), {}):
            for name, state in states.items():
                current = merged.get(name)
                if current is None or (
                    _HEALTH_SEVERITY.get(state, 0)
                    > _HEALTH_SEVERITY.get(current, 0)
                ):
                    merged[name] = state
        return merged

    def merged_component_stats(self) -> Dict[str, Dict[str, Any]]:
        """Cross-shard roll-up of per-component hub metrics."""
        return merge_component_stats(self._per_shard(lambda s: s.component_stats(), {}))

    def merged_metrics(self) -> Dict[str, Dict[str, Any]]:
        """Cross-shard merge of every shard registry's snapshot."""
        return merge_snapshots(self._per_shard(lambda s: s.metrics_snapshot(), {}))

    def sink_outputs(self) -> List[Tuple[str, str, Any, Any]]:
        """All sink-delivered rows across shards (order: shard id)."""
        rows: List[Tuple[str, str, Any, Any]] = []
        for result in self._per_shard(lambda s: s.sink_outputs(), []):
            rows.extend(result)
        return rows

    def pending_total(self) -> int:
        """Datums pending across all shards (degraded ones included)."""
        return sum(record["depth"] for record in self.lane_counters().values())

    def snapshot(self) -> Dict[str, Any]:
        """Merged reflective summary: the coordinator's report surface."""
        per_shard = []
        truncated: List[int] = []
        pending = 0
        for shard, engine_snap in zip(
            self._shards, self._per_shard(lambda s: s.snapshot(), None)
        ):
            entry: Dict[str, Any] = {
                "shard": shard.shard_id,
                "mode": shard.mode,
                "status": shard.status,
                "error": shard.error,
            }
            if engine_snap is None:
                entry["engine"] = None
            else:
                entry["engine"] = engine_snap
                pending += engine_snap.get("pending", 0)
                if engine_snap.get("last_drain_truncated"):
                    truncated.append(shard.shard_id)
            per_shard.append(entry)
        return {
            "executor": self.executor,
            "shards": len(self._shards),
            "placement": self.placement.describe(),
            "targets": len(self._assignments),
            "rounds": self.rounds,
            "drained_total": self.drained_total,
            "pending": pending,
            "running": self._cancel is not None,
            "degraded": self.degraded(),
            "truncated": truncated,
            "failures": self.failures(),
            "migrations": self.migrations(),
            "migrations_total": self.migrations_total,
            "per_shard": per_shard,
        }

    def render(self, snapshot: Dict[str, Any]) -> List[str]:
        """The report's ``sharding:`` lines for a :meth:`snapshot`."""
        placement = snapshot["placement"]
        lines: List[str] = []
        lines.append(
            f"  {snapshot['shards']} shards ({snapshot['executor']}),"
            f" placement={placement['type']};"
            f" targets={snapshot['targets']},"
            f" rounds={snapshot['rounds']},"
            f" drained={snapshot['drained_total']},"
            f" pending={snapshot['pending']},"
            f" migrations={snapshot['migrations_total']}"
        )
        for entry in snapshot["per_shard"]:
            engine_snap = entry["engine"]
            if engine_snap is None:
                detail = "(unreadable)"
            else:
                detail = (
                    f"lanes={len(engine_snap['lanes'])},"
                    f" drained={engine_snap['drained_total']},"
                    f" pending={engine_snap['pending']}"
                )
                if engine_snap["last_drain_truncated"]:
                    detail += " TRUNCATED"
            lines.append(f"  shard {entry['shard']}: {entry['status']}, {detail}")
            if entry["error"]:
                lines.append(f"    ! {entry['error']}")
        return lines

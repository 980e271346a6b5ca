"""Outside-in layer tracing: spans around calls into each layer.

The tracer wraps the public entry points of a built program's layer
objects -- instance attributes shadowing the bound methods, so the
program's own code is untouched and every call made through the object
lands in a wrapper.  Each wrapped call records a span (group, start,
end, parent span, simulated tick, items) in flat in-memory lists;
nothing is written until the run ends.

Self time is a span's duration minus its child spans' durations.  A
layer's self time is the sum over its spans, and whatever the root (the
replay loop itself) spends outside every span is the unattributed
remainder.  Fused chains bypass ``receive``, so the members of a fused
chain report under the chain head's span.
"""

from __future__ import annotations

import gzip
import pickle
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The layers, named after the modules they cover.
LAYERS = (
    "gateway",  # repro.gateway
    "runtime",  # repro.runtime.engine/queues/scheduler
    "sharding",  # repro.runtime.sharding/placement
    "graph",  # repro.core.graph/compile
    "components",  # repro.processing, repro.scenario.geofence
    "pcl",  # repro.core.pcl/channel/datatree
    "hub",  # repro.observability
    "sink",  # ApplicationSink and the positioning providers
    "control",  # repro.scenario.runner/control
)

#: Component classes -> the role their self time reports under.
ROLES = {
    "NmeaParserComponent": "parser",
    "NmeaInterpreterComponent": "interpreter",
    "FingerprintPositioningComponent": "fingerprint",
    "BestAccuracyFusionComponent": "fusion",
    "RoomResolverComponent": "resolver",
    "GeofenceComponent": "geofence",
    "FunctionComponent": "convert",
}

ROOT = -1


class Tracer:
    """Records spans from wrapped calls; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.groups: List[Tuple[str, str]] = []  # group id -> (layer, group)
        self._group_ids: Dict[Tuple[str, str], int] = {}
        self.group_of: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.ticks: List[int] = []
        self.items: List[int] = []
        self._stack: List[int] = [ROOT]
        self.tick = 0
        self.root_start = 0.0
        self.root_end = 0.0

    def clear(self) -> None:
        """Forget recorded spans (the wrappers stay bound to the lists)."""
        for spans in (
            self.group_of,
            self.start,
            self.end,
            self.parent,
            self.ticks,
            self.items,
        ):
            del spans[:]
        del self._stack[1:]

    def set_tick(self, tick: int) -> None:
        self.tick = tick

    def group_id(self, layer: str, group: str) -> int:
        key = (layer, group)
        gid = self._group_ids.get(key)
        if gid is None:
            gid = self._group_ids[key] = len(self.groups)
            self.groups.append(key)
        return gid

    def wrap(
        self,
        obj: Any,
        method: str,
        layer: str,
        group: str,
        items_arg: Optional[int] = None,
    ) -> None:
        """Shadow ``obj.method`` with a span-recording wrapper.

        ``items_arg`` names the positional argument whose length is the
        call's item count; without it a call counts one item.
        """
        fn = getattr(obj, method)
        gid = self.group_id(layer, group)
        tracer = self
        clock = self.clock
        group_of = self.group_of
        start = self.start
        end = self.end
        parent = self.parent
        ticks = self.ticks
        items = self.items
        stack = self._stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(start)
            group_of.append(gid)
            parent.append(stack[-1])
            ticks.append(tracer.tick)
            items.append(1 if items_arg is None else len(args[items_arg]))
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        setattr(obj, method, wrapper)

    def begin(self) -> None:
        """Open the root span: the replay loop itself."""
        self.clear()
        self.root_start = self.clock()

    def finish(self) -> None:
        self.root_end = self.clock()

    def aggregate(self) -> Dict[str, Any]:
        """Per group: calls, items and self time; plus the root's."""
        return aggregate(
            self.groups,
            self.group_of,
            self.start,
            self.end,
            self.parent,
            self.items,
            self.root_end - self.root_start,
        )

    def dump(self, path: str) -> None:
        """Write the recorded spans as gzipped CSV, times relative to the
        root."""
        origin = self.root_start
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span,layer,group,start_us,end_us,parent,tick,items\n")
            for index, gid in enumerate(self.group_of):
                layer, group = self.groups[gid]
                out.write(
                    f"{index},{layer},{group},"
                    f"{(self.start[index] - origin) * 1e6:.3f},"
                    f"{(self.end[index] - origin) * 1e6:.3f},"
                    f"{self.parent[index]},{self.ticks[index]},"
                    f"{self.items[index]}\n"
                )


def aggregate(
    groups: List[Tuple[str, str]],
    group_of: List[int],
    start: List[float],
    end: List[float],
    parent: List[int],
    items: List[int],
    wall: float,
) -> Dict[str, Any]:
    """Self time per group from a span tree given as parent indices.

    Returns ``{"groups": {(layer, group): [calls, items, self_s]},
    "wall": wall, "root_self": wall - top-level span time}``.
    """
    count = len(start)
    child = [0.0] * count
    top = 0.0
    for index in range(count):
        duration = end[index] - start[index]
        up = parent[index]
        if up == ROOT:
            top += duration
        else:
            child[up] += duration
    totals: Dict[Tuple[str, str], List[float]] = {}
    for index in range(count):
        key = groups[group_of[index]]
        entry = totals.get(key)
        if entry is None:
            entry = totals[key] = [0, 0, 0.0]
        entry[0] += 1
        entry[1] += items[index]
        entry[2] += end[index] - start[index] - child[index]
    return {"groups": totals, "wall": wall, "root_self": wall - top}


# -- instrumenting a program ---------------------------------------------------


def _public_methods(obj: Any) -> List[str]:
    return [
        name
        for name in dir(type(obj))
        if not name.startswith("_") and callable(getattr(type(obj), name))
    ]


ENGINE_METHODS = (
    ("submit", "submit"),
    ("track", "churn"),
    ("untrack", "churn"),
    ("drain_round", "drain"),
    ("drain_all", "drain"),
)
COORDINATOR_MERGE = ("ingestion_lanes", "pending_total", "snapshot")
COORDINATOR_METHODS = (
    "track",
    "untrack",
    "is_tracked",
    "submit",
    "submit_batch",
    "drain_round",
    "drain_all",
    "set_policy",
    "migrate_target",
)
HANDLE_METHODS = (
    "track",
    "untrack",
    "submit",
    "submit_many",
    "set_policy",
    "begin_drain",
    "finish_drain",
    "export_lane",
    "install_lane",
    "snapshot",
)


def instrument(program: Any, tracer: Tracer) -> None:
    """Wrap every layer entry point of a built program."""
    from repro.core.component import ApplicationSink, SourceComponent

    if program.gateway is not None:
        tracer.wrap(program.gateway, "submit_many", "gateway", "gateway.submit", 0)
        tracer.wrap(program.gateway, "forward", "gateway", "gateway.forward")
    if program.sharded:
        coordinator = program.engine
        for method in COORDINATOR_METHODS:
            tracer.wrap(coordinator, method, "sharding", "sharding.coord")
        for method in COORDINATOR_MERGE:
            tracer.wrap(coordinator, method, "sharding", "sharding.merge")
        for shard in coordinator.shards():
            for method in HANDLE_METHODS:
                group = "sharding.merge" if method == "snapshot" else "sharding.handle"
                tracer.wrap(shard, method, "sharding", group)
    for engine in program.engines():
        for method, group in ENGINE_METHODS:
            tracer.wrap(engine, method, "runtime", f"runtime.{group}")
        tracer.wrap(engine.scheduler, "plan", "runtime", "runtime.drain")
    for graph in program.graphs():
        tracer.wrap(graph, "route_batch", "graph", "graph.route", 1)
        tracer.wrap(graph, "_route", "graph", "graph.route")
        for component in graph.components():
            if isinstance(component, SourceComponent):
                continue
            if isinstance(component, ApplicationSink):
                layer, group = "sink", "sink"
            else:
                role = ROLES.get(type(component).__name__, component.name)
                layer, group = "components", f"components.{role}"
            tracer.wrap(component, "receive", layer, group)
            tracer.wrap(component, "receive_batch", layer, group, 1)
    pcl = program.middleware.pcl
    for method in ("data_consumed", "data_produced"):
        tracer.wrap(pcl, method, "pcl", "pcl")
    for hub in program.hubs():
        for method in _public_methods(hub):
            tracer.wrap(hub, method, "hub", "hub")
    if program.runner is not None:
        tracer.wrap(program.runner, "view", "control", "control.view")
        tracer.wrap(program.control, "step", "control", "control.step")


# -- computed IPC volume ---------------------------------------------------------


def _request(method: str, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Any:
    """The pipe message a multiprocessing shard would receive for a call
    on its in-process twin (see ``ProcessShard`` in
    ``repro.runtime.sharding``)."""
    if method == "begin_drain":
        op, max_rounds = args
        if op == "round":
            return ("drain_round", (), {})
        return ("drain_all", (max_rounds,), {})
    if method in ("track", "set_policy"):
        return (method, args, kwargs)
    return (method, args, {})


class IpcCounter:
    """Counts what the shard-handle calls of an in-process sharded engine
    would send over pipes under the multiprocessing executor.

    Every handle call but ``begin_drain`` completes one round trip (a
    drain is cast by ``begin_drain`` and collected by ``finish_drain``).
    Bytes are the pickled request plus the pickled ``("ok", result)``
    response, as ``ProcessShard`` and its worker exchange them.  Like the
    worker, the shard gets unpickled copies of the arguments, and like
    ``ProcessShard`` the coordinator gets an unpickled copy of the
    result, so objects shared within a message are shared exactly as on
    a real pipe and pickle to the same size.
    """

    def __init__(self) -> None:
        self.round_trips = 0
        self.bytes = 0
        self.calls: Dict[str, int] = {}

    def attach(self, coordinator: Any) -> None:
        for shard in coordinator.shards():
            for method in HANDLE_METHODS:
                self._wrap(shard, method)

    def _wrap(self, shard: Any, method: str) -> None:
        fn = getattr(shard, method)
        counter = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counter.calls[method] = counter.calls.get(method, 0) + 1
            if method != "finish_drain":
                request = pickle.dumps(_request(method, args, kwargs))
                counter.bytes += len(request)
                if method != "begin_drain":
                    _op, args, kwargs = pickle.loads(request)
            result = fn(*args, **kwargs)
            if method == "begin_drain":
                return result
            response = pickle.dumps(("ok", result))
            counter.round_trips += 1
            counter.bytes += len(response)
            return pickle.loads(response)[1]

        setattr(shard, method, wrapper)

"""PerPos core: the paper's primary contribution (system S9).

The middleware reifies the positioning process as a graph of
:class:`~repro.core.component.ProcessingComponent` nodes and exposes it
through three layers of increasing abstraction:

* :class:`~repro.core.psl.ProcessStructureLayer` -- full structural
  reflection: insert/delete/connect, Component Features, method access;
* :class:`~repro.core.pcl.ProcessChannelLayer` -- source-to-merge
  channels with logical-time data trees and Channel Features;
* :class:`~repro.core.positioning.PositioningLayer` -- the traditional
  JSR-179-style provider API, with adaptations from below still
  reachable.

:class:`~repro.core.middleware.PerPos` bundles the three over one graph.
"""

from repro.core.assembly import AssemblyError, AutoAssembler
from repro.core.channel import Channel, ChannelFeature
from repro.core.config import (
    ComponentTypeRegistry,
    ConfigurationError,
    default_registry,
    load_configuration,
)
from repro.core.history import TrackHistoryService, TrackPoint
from repro.core.compile import CompiledPlan, FusedChain, compile_plan
from repro.core.component import (
    ApplicationSink,
    ComponentError,
    ComponentObserver,
    FunctionComponent,
    InputPort,
    OutputPort,
    ProcessingComponent,
    SourceComponent,
)
from repro.core.data import Datum, Kind
from repro.core.datatree import DataTree, DataTreeElement
from repro.core.features import ComponentFeature, FeatureError
from repro.core.graph import Connection, GraphError, GraphObserver, ProcessingGraph
from repro.core.middleware import PerPos
from repro.core.pcl import ProcessChannelLayer
from repro.core.positioning import (
    Criteria,
    LocationProvider,
    PositioningError,
    PositioningLayer,
    Target,
)
from repro.core.psl import ProcessStructureLayer
from repro.core.report import infrastructure_snapshot, render_report
from repro.observability import (
    ChannelTracingFeature,
    FlowTrace,
    MetricsRegistry,
    ObservabilityHub,
    TraceHop,
    TracingFeature,
    trace_of,
)
from repro.robustness import (
    FailureRecord,
    FaultInjected,
    FaultInjectionFeature,
    SupervisionError,
    SupervisionPolicy,
    Supervisor,
)

__all__ = [
    "AutoAssembler",
    "AssemblyError",
    "ComponentTypeRegistry",
    "ConfigurationError",
    "default_registry",
    "load_configuration",
    "TrackHistoryService",
    "TrackPoint",
    "infrastructure_snapshot",
    "render_report",
    "Datum",
    "Kind",
    "ProcessingComponent",
    "SourceComponent",
    "FunctionComponent",
    "ApplicationSink",
    "InputPort",
    "OutputPort",
    "ComponentError",
    "ComponentObserver",
    "ComponentFeature",
    "FeatureError",
    "ProcessingGraph",
    "GraphObserver",
    "GraphError",
    "Connection",
    "CompiledPlan",
    "FusedChain",
    "compile_plan",
    "DataTree",
    "DataTreeElement",
    "Channel",
    "ChannelFeature",
    "ProcessStructureLayer",
    "ProcessChannelLayer",
    "PositioningLayer",
    "LocationProvider",
    "Criteria",
    "Target",
    "PositioningError",
    "PerPos",
    "ChannelTracingFeature",
    "FlowTrace",
    "MetricsRegistry",
    "ObservabilityHub",
    "TraceHop",
    "TracingFeature",
    "trace_of",
    "FailureRecord",
    "FaultInjected",
    "FaultInjectionFeature",
    "SupervisionError",
    "SupervisionPolicy",
    "Supervisor",
]

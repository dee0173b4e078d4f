"""Which public call belongs to which layer.

These are the traced-only seams of the pinned surface (see README.md):
a rename under ``src/`` costs one ``wrap`` line here.
"""

from __future__ import annotations

from typing import Any, Callable

import repro.core.shedder as shedder_module
from repro.core import RegionHierarchy, SheddingPlan, StatisticsGrid

from spans import Tracer

#: Layer -> the span names whose self time it owns, in table order.
#: ``shedder.self`` and ``loop.self`` are what their parents keep after
#: the children are taken out: cost no seam accounts for.
LAYERS = {
    "motion.observe": ("motion.observe",),
    "node_engine.thresholds": ("node_engine.thresholds",),
    "history.record": ("history.record",),
    "cq_server.receive": ("cq_server.receive",),
    "cq_server.process": ("cq_server.process",),
    "cq_server.eval": ("cq_server.eval",),
    "node_table.predict": ("node_table.predict",),
    "statistics_grid.build": ("statistics_grid.build",),
    "quadtree.refresh": ("quadtree.refresh",),
    "gridreduce": ("gridreduce",),
    "greedy": ("greedy",),
    "plan.build": ("plan.build",),
    "plan.diff": ("plan.diff",),
    "protocol.install": ("protocol.install",),
    "shedder.self": ("shedder",),
    "service.apply_ingest": ("service.apply_ingest",),
    "service.pump": ("service.pump",),
    "service.adapt": ("service.adapt",),
    "loop.self": ("loop.tick", "loop.eval", "loop.adapt"),
}


def wrap_adapt_path(
    tracer: Tracer,
    shedder: Any,
    network: Any,
    on_grid: Callable[[Any], None] | None = None,
) -> None:
    """Statistics grid → GRIDREDUCE → GREEDYINCREMENT → plan → install."""
    tracer.wrap(StatisticsGrid, "from_snapshot", "statistics_grid.build", on_grid)
    tracer.wrap(shedder, "adapt", "shedder")
    # A fresh hierarchy and a sparse refresh are the same layer used two ways.
    tracer.wrap(shedder_module, "RegionHierarchy", "quadtree.refresh")
    tracer.wrap(RegionHierarchy, "refresh", "quadtree.refresh")
    tracer.wrap(shedder_module, "grid_reduce", "gridreduce")
    tracer.wrap(shedder_module, "greedy_increment", "greedy")
    tracer.wrap(SheddingPlan, "from_regions", "plan.build")
    tracer.wrap(SheddingPlan, "with_content", "plan.build")
    tracer.wrap(SheddingPlan, "diff", "plan.diff")
    tracer.wrap(network, "install_plan", "protocol.install")


def wrap_server(tracer: Tracer, server: Any) -> None:
    """The CQ server's queue, node table and query evaluation."""
    tracer.wrap(server, "receive_reports", "cq_server.receive")
    tracer.wrap(server, "process", "cq_server.process")
    tracer.wrap(server, "evaluate_queries", "cq_server.eval")
    tracer.wrap(server.table, "predict", "node_table.predict")


def wrap_system(
    tracer: Tracer, system: Any, on_grid: Callable[[Any], None] | None = None
) -> None:
    """Every layer of one in-process ``LiraSystem``."""
    tracer.wrap(system.node_engine, "compute_thresholds", "node_engine.thresholds")
    tracer.wrap(system.fleet, "set_thresholds", "motion.observe")
    tracer.wrap(system.fleet, "observe", "motion.observe")
    tracer.wrap(system.history, "record", "history.record")
    wrap_server(tracer, system.server)
    wrap_adapt_path(tracer, system.shedder, system.network, on_grid)


def wrap_service(
    tracer: Tracer, service: Any, on_grid: Callable[[Any], None] | None = None
) -> None:
    """Every layer of one ``LiraService`` (run inside its own process)."""
    tracer.wrap(service, "apply_ingest", "service.apply_ingest")
    tracer.wrap(service, "pump_once", "service.pump")
    tracer.wrap(service, "adapt_once", "service.adapt")
    wrap_server(tracer, service.server)
    wrap_adapt_path(tracer, service.shedder, service.network, on_grid)

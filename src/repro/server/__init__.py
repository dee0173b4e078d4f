"""Mobile CQ server substrate: input queue, server, base stations."""

from repro.server.base_station import (
    BYTES_PER_REGION,
    UDP_PAYLOAD_BYTES,
    BaseStation,
    mean_regions_per_station,
    place_density_dependent_stations,
    place_uniform_stations,
)
from repro.server.cq_server import LoadMeasurement, MobileCQServer
from repro.server.node_engine import StationAssigner, VectorNodeEngine
from repro.server.protocol import BaseStationNetwork, RegionSubset
from repro.server.queue import ArrayBoundedQueue
from repro.server.shard import LiraShard
from repro.server.sharding import ShardRouter, hrw_shards
from repro.server.system import LiraSystem, RebalanceReport, SystemStats

__all__ = [
    "ArrayBoundedQueue",
    "BaseStationNetwork",
    "LiraShard",
    "LiraSystem",
    "RebalanceReport",
    "ShardRouter",
    "RegionSubset",
    "StationAssigner",
    "SystemStats",
    "VectorNodeEngine",
    "BYTES_PER_REGION",
    "BaseStation",
    "LoadMeasurement",
    "MobileCQServer",
    "UDP_PAYLOAD_BYTES",
    "hrw_shards",
    "mean_regions_per_station",
    "place_density_dependent_stations",
    "place_uniform_stations",
]

"""Mobile CQ server substrate: input queue, server, base stations."""

import importlib
from typing import Any

#: The public names by home module.  Each is imported on first access
#: (PEP 562), so the live service, which reads the shard only, loads
#: neither the systems loop, the node engine nor the shard router.
_HOMES = {
    "repro.server.base_station": (
        "BYTES_PER_REGION", "UDP_PAYLOAD_BYTES", "BaseStation", "mean_regions_per_station",
        "place_density_dependent_stations", "place_uniform_stations",
    ),
    "repro.server.cq_server": ("LoadMeasurement", "MobileCQServer"),
    "repro.server.node_engine": ("StationAssigner", "VectorNodeEngine"),
    "repro.server.protocol": ("BaseStationNetwork", "RegionSubset"),
    "repro.server.queue": ("ArrayBoundedQueue",),
    "repro.server.shard": ("LiraShard",),
    "repro.server.sharding": ("ShardRouter", "hrw_shards"),
    "repro.server.system": ("LiraSystem", "RebalanceReport", "SystemStats"),
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names}

__all__ = list(_HOME_OF)


def __getattr__(name: str) -> Any:
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(_HOME_OF[name]), name)
    return value

"""Load-shedding cost metrics (paper Section 4.1.2).

Server-side cost: wall-clock time of one adaptation step (THROTLOOP +
GRIDREDUCE + GREEDYINCREMENT).  Mobile-node / wireless cost: the number
of shedding regions a node must know and the broadcast bytes required to
install them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import LiraLoadShedder
from repro.core.statistics_grid import StatisticsGrid
from repro.core.plan import SheddingPlan
from repro.server.base_station import (
    BYTES_PER_REGION,
    UDP_PAYLOAD_BYTES,
    BaseStation,
    mean_regions_per_station,
)
from repro.timing import wall_time_samples

__all__ = [
    "AdaptationTiming",
    "MessagingCost",
    "messaging_cost",
    "time_adaptation",
]


@dataclass(frozen=True, slots=True)
class AdaptationTiming:
    """Wall-clock cost of adaptation steps, in seconds."""

    mean: float
    minimum: float
    maximum: float
    repeats: int


def time_adaptation(
    shedder: LiraLoadShedder, grid: StatisticsGrid, repeats: int = 3
) -> AdaptationTiming:
    """Measure the adaptation step (the paper's server-side cost, Fig 14)."""
    samples = wall_time_samples(lambda: shedder.adapt(grid), repeats)
    return AdaptationTiming(
        mean=sum(samples) / len(samples),
        minimum=min(samples),
        maximum=max(samples),
        repeats=repeats,
    )


@dataclass(frozen=True, slots=True)
class MessagingCost:
    """Wireless messaging cost of installing a shedding plan."""

    regions_per_station: float
    broadcast_bytes: float

    @property
    def fits_in_one_packet(self) -> bool:
        """True if the average broadcast fits one UDP-over-Ethernet packet."""
        return self.broadcast_bytes <= UDP_PAYLOAD_BYTES


def messaging_cost(stations: list[BaseStation], plan: SheddingPlan) -> MessagingCost:
    """Average per-station regions-to-know and broadcast payload size."""
    regions = mean_regions_per_station(stations, plan)
    return MessagingCost(
        regions_per_station=regions,
        broadcast_bytes=regions * BYTES_PER_REGION,
    )

"""Deterministic station→shard routing for the sharded deployment.

The service area is split across K shards by assigning every *base
station* to a shard with rendezvous (highest-random-weight) hashing over
the station id; a node's reports go to the shard that owns its serving
station, so the spatial partition is the union of the owned stations'
coverage cells and node→shard routing is one gather of the station
slot the node engine already computes every tick.

Rendezvous hashing is chosen over range/modulo partitioning because it
is stateless (any process can recompute the owner of any station from
``(station_id, n_shards)`` alone), deterministic across machines
and Python processes (the mixer below is a fixed 64-bit integer
permutation — **not** Python's ``hash()``, which varies per process
under hash randomization), and minimally disruptive when K changes:
going K→K+1 only reassigns the stations the new shard wins.
"""

from __future__ import annotations

import numpy as np

from repro.server.base_station import BaseStation

#: 2^64 / φ — the splitmix64 increment, reused to offset the keys and to
#: derive the per-shard stream constants.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer: a fixed bijective 64-bit mixer.

    Operates on uint64 arrays with wrapping arithmetic; equal inputs
    give equal outputs on every platform and process, which is the
    property rendezvous routing needs (``PYTHONHASHSEED`` must not be
    able to move a station between shards).
    """
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def hrw_shards(keys: np.ndarray, n_shards: int) -> np.ndarray:
    """Rendezvous (HRW) shard of each key, vectorized.

    Every ``(key, shard)`` pair gets a mixed 64-bit score and each key
    goes to the shard with the highest score; score ties (probability
    ~2^-64) resolve to the lowest shard id via ``argmax``'s
    first-maximum rule.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    keys = np.asarray(keys)
    if np.any(np.asarray(keys, dtype=np.int64) < 0):
        raise ValueError("keys must be non-negative")
    flat = keys.astype(np.uint64).ravel()
    if n_shards == 1:
        return np.zeros(keys.shape, dtype=np.int64)
    mixed = _mix64(flat + _GOLDEN)
    shard_tokens = _mix64(
        (np.arange(1, n_shards + 1, dtype=np.uint64)) * _GOLDEN
    )
    scores = _mix64(mixed[None, :] ^ shard_tokens[:, None])
    return np.argmax(scores, axis=0).astype(np.int64).reshape(keys.shape)


class ShardRouter:
    """Station→shard ownership of a sharded deployment.

    ``station_shard[slot]`` maps a station *slot* (index into the global
    station list, the unit the vectorized node engine works in) to its
    owning shard, so a node's shard is a pure function of its serving
    station — identical to the one-shard deployment's assignment.
    """

    def __init__(self, stations: list[BaseStation], n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if not stations:
            raise ValueError("at least one base station is required")
        self.stations = list(stations)
        self.n_shards = n_shards
        station_ids = np.array(
            [s.station_id for s in self.stations], dtype=np.int64
        )
        #: Owning shard per station slot (global station-list order).
        self.station_shard = hrw_shards(station_ids, n_shards)

    def stations_for(self, shard_id: int) -> list[BaseStation]:
        """The stations one shard owns, in global station-list order."""
        return [
            station
            for station, owner in zip(self.stations, self.station_shard)
            if int(owner) == shard_id
        ]

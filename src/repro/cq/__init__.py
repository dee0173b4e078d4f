"""Incremental CQ evaluation: query indexing, result deltas, moving queries."""

from repro.cq.engine import IncrementalCQEngine, MovingRangeQuery, ResultDelta
from repro.cq.query_index import QueryIndex

__all__ = [
    "IncrementalCQEngine",
    "MovingRangeQuery",
    "QueryIndex",
    "ResultDelta",
]

"""Spatial indexing substrate: grid index and the server's node table."""

from repro.index.grid_index import GridIndex
from repro.index.node_table import NodeTable

__all__ = ["GridIndex", "NodeTable"]

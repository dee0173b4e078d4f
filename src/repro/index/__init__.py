"""Spatial indexing substrate: the server's node table."""

from repro.index.node_table import NodeTable

__all__ = ["NodeTable"]

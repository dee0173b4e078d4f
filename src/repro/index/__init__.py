"""Spatial indexing substrate: grid index and the server's node table."""

from repro.index.grid_index import GridIndex
from repro.index.node_table import NodeTable
from repro.index.tpr_tree import MovingObject, TPBR, TPRTree

__all__ = [
    "GridIndex",
    "MovingObject",
    "NodeTable",
    "TPBR",
    "TPRTree",
]

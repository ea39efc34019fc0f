"""GCell grid and the 3D global-routing graph (Section III of the paper)."""

from repro.grid.gcellgrid import GCellGrid
from repro.grid.graph import EdgeKind, GridEdge, RoutingGraph
from repro.grid.cost import CostParams
from repro.grid.field import CostField

__all__ = [
    "GCellGrid",
    "RoutingGraph",
    "GridEdge",
    "EdgeKind",
    "CostParams",
    "CostField",
]

"""Routing points: the building's navigation graph.

Paper §2: "a table of 'routing points' describing possible path segments
and distances in the building in order to suggest routes to resources."

The graph is undirected and weighted by walking distance. It exports
itself as the ``RoutingPoints`` table rows the stream engine loads, and
it is the edge relation behind the recursive transitive-closure view the
stream engine maintains for live routing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BuildingModelError
from repro.sensor.mote import Position


@dataclass(frozen=True)
class RoutingPoint:
    """A named navigation node (hallway junction, doorway, desk)."""

    name: str
    position: Position


class RoutingGraph:
    """Undirected weighted graph over routing points."""

    def __init__(self) -> None:
        self._points: dict[str, RoutingPoint] = {}
        self._edges: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------
    def add_point(self, name: str, position: Position) -> RoutingPoint:
        if name in self._points:
            raise BuildingModelError(f"duplicate routing point {name!r}")
        point = RoutingPoint(name, position)
        self._points[name] = point
        self._edges[name] = {}
        return point

    def add_edge(self, a: str, b: str, distance: float | None = None) -> None:
        """Connect two points; distance defaults to Euclidean."""
        if a not in self._points or b not in self._points:
            missing = a if a not in self._points else b
            raise BuildingModelError(f"unknown routing point {missing!r}")
        if a == b:
            raise BuildingModelError("self-loop routing edges are not allowed")
        if distance is None:
            distance = self._points[a].position.distance_to(self._points[b].position)
        if distance <= 0:
            raise BuildingModelError("routing edge distance must be positive")
        self._edges[a][b] = distance
        self._edges[b][a] = distance

    def remove_edge(self, a: str, b: str) -> None:
        """Remove a segment (a closed corridor / locked door)."""
        self._edges.get(a, {}).pop(b, None)
        self._edges.get(b, {}).pop(a, None)

    # ------------------------------------------------------------------
    def point(self, name: str) -> RoutingPoint:
        point = self._points.get(name)
        if point is None:
            raise BuildingModelError(f"unknown routing point {name!r}")
        return point

    @property
    def points(self) -> list[RoutingPoint]:
        return list(self._points.values())

    def neighbors(self, name: str) -> dict[str, float]:
        """Adjacent points and edge distances."""
        if name not in self._edges:
            raise BuildingModelError(f"unknown routing point {name!r}")
        return dict(self._edges[name])

    def edges(self) -> list[tuple[str, str, float]]:
        """Each undirected edge once, alphabetically oriented."""
        out = []
        for a, adjacency in self._edges.items():
            for b, distance in adjacency.items():
                if a < b:
                    out.append((a, b, distance))
        return sorted(out)

    def edge_rows(self) -> list[dict[str, object]]:
        """``RoutingPoints`` table rows — both directions, as the paper's
        table of path segments."""
        rows = []
        for a, b, distance in self.edges():
            rows.append({"src": a, "dst": b, "distance": distance})
            rows.append({"src": b, "dst": a, "distance": distance})
        return rows

    def nearest_point(self, position: Position) -> RoutingPoint:
        """Closest routing point to an arbitrary position (for snapping
        localisation fixes onto the graph)."""
        if not self._points:
            raise BuildingModelError("routing graph is empty")
        return min(
            self._points.values(), key=lambda p: p.position.distance_to(position)
        )

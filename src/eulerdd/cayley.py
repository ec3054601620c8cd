"""Generator-colored Cayley graphs and Eulerian cycles on them.

Edges are colored by generator index: color c joins vertex v to the vertex
representing gamma_c * g_v.  Since every vertex has exactly one departing
edge of each color, a cycle is fully determined by its color sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group_theory import Group


# every walk and cycle starts at vertex 0, the identity element
START = 0


class NoEulerianCycleError(ValueError):
    """The graph is disconnected (generators do not generate the group)."""


@dataclass(frozen=True)
class CayleyGraph:
    vertex_count: int
    colors: int
    targets: tuple  # targets[v][c]: end vertex of the color-c edge leaving v

    @property
    def edge_count(self) -> int:
        return self.vertex_count * self.colors

    def edges(self):
        """Edge list ordered by (vertex, color)."""
        return [(v, self.targets[v][c], c)
                for v in range(self.vertex_count)
                for c in range(self.colors)]


@dataclass(frozen=True)
class EulerPath:
    colors: tuple   # generator indices p_l, l = 1..L (None: a free step)
    vertices: tuple # induced vertex sequence, length L+1, closed

    def __len__(self) -> int:
        return len(self.colors)


def build_cayley(group: Group) -> CayleyGraph:
    """Cayley graph of the group w.r.t. its generating set."""
    if not group.generators:
        raise ValueError("group has no generators")
    targets = tuple(
        tuple(group.multiply(gen, v) for gen in group.generators)
        for v in range(group.order)
    )
    return CayleyGraph(vertex_count=group.order,
                       colors=len(group.generators), targets=targets)


def walk(graph: CayleyGraph, colors) -> list:
    """Vertex sequence induced by a color sequence from START."""
    verts = [START]
    for c in colors:
        verts.append(graph.targets[verts[-1]][c])
    return verts


def eulerian_cycle(graph: CayleyGraph) -> EulerPath:
    """Hierholzer's algorithm with lowest-color-first edge selection.

    Deterministic for fixed input.  Raises NoEulerianCycleError if the
    graph is disconnected (non-generating color set).
    """
    n, k = graph.vertex_count, graph.colors
    next_color = [0] * n           # next untried color at each vertex
    stack = [(START, -1)]          # (vertex, color of edge used to get here)
    trail = []                     # edges in reverse completion order
    while stack:
        v, cin = stack[-1]
        if next_color[v] < k:
            c = next_color[v]
            next_color[v] += 1
            stack.append((graph.targets[v][c], c))
        else:
            stack.pop()
            if cin >= 0:
                trail.append(cin)
    colors = tuple(reversed(trail))
    if len(colors) != graph.edge_count:
        raise NoEulerianCycleError("no Eulerian cycle: graph is disconnected")
    verts = walk(graph, colors)
    return EulerPath(colors=colors, vertices=tuple(verts))


def validate_path(graph: CayleyGraph, colors):
    """Check a color sequence is an Eulerian cycle from START.

    Returns (ok, diagnostic); diagnostic names the first violated condition.
    """
    colors = list(colors)
    for c in colors:
        if not 0 <= c < graph.colors:
            return False, f"unknown color {c}"
    if len(colors) != graph.edge_count:
        return False, ("edges unused" if len(colors) < graph.edge_count
                       else "too many edges")
    used = set()
    v = START
    for i, c in enumerate(colors):
        if (v, c) in used:
            return False, f"edge ({v}, color {c}) reused at step {i}"
        used.add((v, c))
        v = graph.targets[v][c]
    if v != START:
        return False, "path does not close at the start vertex"
    return True, "ok"


def path_from_colors(graph: CayleyGraph, colors) -> EulerPath:
    """The Eulerian cycle with the given color sequence from START.

    Raises ValueError naming the first condition of ``validate_path`` that
    the sequence violates.
    """
    colors = tuple(colors)
    ok, diag = validate_path(graph, colors)
    if not ok:
        raise ValueError(f"invalid Eulerian path: {diag}")
    return EulerPath(colors=colors, vertices=tuple(walk(graph, colors)))

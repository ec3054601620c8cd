"""Eulerian cycles on the generator-colored Cayley graph of a group, read
from its multiplication table.

Edges are colored by generator index: color c joins vertex v to the vertex
of gamma_c * g_v, ``group.mult_table[group.generators[c], v]``.  Since every
vertex has exactly one departing edge of each color, a cycle is fully
determined by its color sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group_theory import Group


# every walk and cycle starts at vertex 0, the identity element
START = 0


class NoEulerianCycleError(ValueError):
    """The graph is disconnected (generators do not generate the group)."""


@dataclass(frozen=True)
class EulerPath:
    colors: tuple   # generator indices p_l, l = 1..L (None: a free step)
    vertices: tuple # induced vertex sequence, length L+1, closed

    def __len__(self) -> int:
        return len(self.colors)


def _targets(group: Group) -> list:
    """targets[v][c]: the end vertex of the color-c edge leaving v, as
    Python lists, which Hierholzer's inner loop indexes faster than an
    array."""
    if not group.generators:
        raise ValueError("group has no generators")
    return group.mult_table[list(group.generators)].T.tolist()


def _walk(targets: list, colors) -> list:
    """Vertex sequence induced by a color sequence from START, on the table
    ``_targets`` has read."""
    verts = [START]
    for c in colors:
        verts.append(targets[verts[-1]][c])
    return verts


def eulerian_cycle(group: Group) -> EulerPath:
    """Hierholzer's algorithm with lowest-color-first edge selection.

    Deterministic for fixed input.  Raises NoEulerianCycleError if the
    graph is disconnected (non-generating color set).
    """
    targets = _targets(group)
    n, k = group.order, len(group.generators)
    next_color = [0] * n           # next untried color at each vertex
    stack = [(START, -1)]          # (vertex, color of edge used to get here)
    trail = []                     # edges in reverse completion order
    while stack:
        v, cin = stack[-1]
        if next_color[v] < k:
            c = next_color[v]
            next_color[v] += 1
            stack.append((targets[v][c], c))
        else:
            stack.pop()
            if cin >= 0:
                trail.append(cin)
    colors = tuple(reversed(trail))
    if len(colors) != n * k:
        raise NoEulerianCycleError("no Eulerian cycle: graph is disconnected")
    return EulerPath(colors=colors, vertices=tuple(_walk(targets, colors)))


def validate_path(group: Group, colors):
    """Check a color sequence is an Eulerian cycle from START.

    Returns (ok, diagnostic); diagnostic names the first violated condition.
    """
    return _check_cycle(_targets(group), colors)


def _check_cycle(targets: list, colors):
    """``validate_path`` on the table ``_targets`` has read."""
    n, k = len(targets), len(targets[0])
    colors = list(colors)
    for c in colors:
        if not 0 <= c < k:
            return False, f"unknown color {c}"
    if len(colors) != n * k:
        return False, ("edges unused" if len(colors) < n * k
                       else "too many edges")
    used = set()
    v = START
    for i, c in enumerate(colors):
        if (v, c) in used:
            return False, f"edge ({v}, color {c}) reused at step {i}"
        used.add((v, c))
        v = targets[v][c]
    if v != START:
        return False, "path does not close at the start vertex"
    return True, "ok"


def path_from_colors(group: Group, colors) -> EulerPath:
    """The Eulerian cycle with the given color sequence from START.

    Raises ValueError naming the first condition of ``validate_path`` that
    the sequence violates.
    """
    colors, targets = tuple(colors), _targets(group)
    ok, diag = _check_cycle(targets, colors)
    if not ok:
        raise ValueError(f"invalid Eulerian path: {diag}")
    return EulerPath(colors=colors, vertices=tuple(_walk(targets, colors)))

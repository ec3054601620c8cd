"""Tests for Eulerian cycles on the Cayley graph read from the group table."""

import numpy as np
import pytest

from eulerdd.analysis import builtin_scenarios
from eulerdd.cayley import (NoEulerianCycleError, eulerian_cycle,
                           path_from_colors, validate_path)
from eulerdd.group_theory import Group, close_group

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_z2_graph():
    group, _ = close_group([SX])
    assert group.order == 2
    assert len(group.generators) == 1
    # the color-0 edges 0 -> 1 and 1 -> 0, in the table and along a walk
    assert group.mult_table[list(group.generators)].T.tolist() == [[1], [0]]
    assert path_from_colors(group, (0, 0)).vertices == (0, 1, 0)


def test_pauli_graph_counts():
    group, _ = close_group([SX, SZ])
    assert group.order == 4
    assert group.order * len(group.generators) == 8
    # targets[c, v]: the end of the color-c edge leaving v; a walk steps
    # along it
    targets = group.mult_table[list(group.generators)]
    path = eulerian_cycle(group)
    colors, verts = path.colors, path.vertices
    assert all(verts[i + 1] == targets[c, verts[i]] for i, c in enumerate(colors))
    # regularity: in-degree equals out-degree equals number of colors
    indeg = [0] * 4
    for to in targets.ravel():
        indeg[to] += 1
    assert indeg == [2, 2, 2, 2]


def test_z2_cycle_matches_reference():
    group, _ = close_group([SX])
    path = eulerian_cycle(group)
    assert path.colors == (0, 0)
    assert path.vertices == (0, 1, 0)


def test_cycles_validate_for_all_builtins():
    for sc in builtin_scenarios():
        path = eulerian_cycle(sc.group)
        ok, diag = validate_path(sc.group, path.colors)
        assert ok, f"{sc.name}: {diag}"
        assert len(path) == sc.group.order * len(sc.group.generators)


def test_reference_paths_validate():
    group, _ = close_group([SX, SZ])
    ok, _ = validate_path(group, (0, 1, 0, 1, 1, 0, 1, 0))
    assert ok


def test_wrong_length_rejected():
    group, _ = close_group([SX, SZ])
    ok, diag = validate_path(group, (0, 0))
    assert not ok
    assert diag == "edges unused"


def test_reused_edge_rejected():
    group, _ = close_group([SX, SZ])
    ok, diag = validate_path(group, (0, 0, 0, 0, 1, 1, 1, 1))
    assert not ok
    assert "reused" in diag


def test_unknown_color_rejected():
    group, _ = close_group([SX])
    ok, diag = validate_path(group, (0, 3))
    assert not ok
    assert "unknown color" in diag


def test_one_incoming_edge_per_color_and_vertex():
    # the combinatorial fact the averaging argument relies on: the cycle
    # contains exactly one edge of each color ending at each vertex
    for sc in builtin_scenarios():
        path = eulerian_cycle(sc.group)
        seen = {}
        for v, c in zip(path.vertices[1:], path.colors):
            seen[(v, c)] = seen.get((v, c), 0) + 1
        assert all(count == 1 for count in seen.values())
        assert len(seen) == sc.expected_cycle_length


def test_disconnected_graph_rejected():
    # Z4 with the generating set replaced by the non-generating element g^2
    table = np.array([[(i + j) % 4 for j in range(4)] for i in range(4)])
    group = Group(mult_table=table, generators=(2,))
    with pytest.raises(NoEulerianCycleError):
        eulerian_cycle(group)


def test_deterministic_output():
    group, _ = close_group([SX, SZ])
    assert eulerian_cycle(group).colors == eulerian_cycle(group).colors
